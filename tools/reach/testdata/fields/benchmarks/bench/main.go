package main

import (
	"fmt"

	"fixture/internal/opt"
)

func main() {
	fmt.Println(opt.Use(opt.Config{Bench: 1}, opt.PairOptions{}))
}
