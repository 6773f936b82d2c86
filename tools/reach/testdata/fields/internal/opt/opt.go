// Package opt declares the option structs the field guard's tests check.
package opt

// Config has one field per way of writing, or not writing, an option.
type Config struct {
	Keyed      int // a keyed literal in cmd/app
	Assigned   int // an assignment in cmd/app
	Addressed  int // &c.Addressed in cmd/app
	Bumped     int // c.Bumped++ in cmd/app
	Bench      int // a keyed literal in the benchmark module only
	Unused     int // nobody
	Defaulted  int // only this package's defaulting
	TestOnly   int // only a _test.go file
	Kept       int // nobody, kept with a ROADMAP item
	Unreasoned int // nobody, kept without one
	Listed     int // a keyed literal in cmd/app, and kept anyway

	Embedded
	unexported int
}

// Embedded is promoted into Config; its own fields are counted here.
type Embedded struct{}

// PairOptions is written only through an unkeyed literal.
type PairOptions struct{ A, B int }

// other is not exported, so its fields are no options.
type other struct{ X int }

// Sizes is not named *Config or *Options, so its fields are no options.
type Sizes struct{ Y int }

// Use applies c's defaults and reads every field.
func Use(c Config, p PairOptions) int {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	o := other{X: 1}
	s := Sizes{Y: 1}
	c.unexported = 1
	return c.Keyed + c.Assigned + c.Addressed + c.Bumped + c.Bench + c.Unused + c.Defaulted +
		c.TestOnly + c.Kept + c.Unreasoned + c.Listed + c.unexported + p.A + p.B + o.X + s.Y
}
