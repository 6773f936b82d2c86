package main

import (
	"fmt"

	"fixture/internal/opt"
)

func main() {
	c := opt.Config{Keyed: 1, Listed: 1}
	c.Assigned = 2
	p := &c.Addressed
	*p = 3
	c.Bumped++
	fmt.Println(opt.Use(c, opt.PairOptions{1, 2}))
}
