package opt

import "testing"

func TestUse(t *testing.T) {
	if Use(Config{TestOnly: 1}, PairOptions{}) == 0 {
		t.Fatal("zero")
	}
}
