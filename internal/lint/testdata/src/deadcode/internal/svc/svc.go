// Package svc holds one declaration per deadcode rule.
package svc

// Used is called by the root package's API.
func Used() string { return "used" }

// Orphan is referenced by nothing.
func Orphan() {} // want "func Orphan is unreachable"

// deadCaller is dead, so deadCallee, which only it calls, is dead too.
func deadCaller() { deadCallee() } // want "func deadCaller is unreachable"

func deadCallee() {} // want "func deadCallee is unreachable"

// Chained is live from main, and so is what it calls.
func Chained() int { return chainedHelper() }

func chainedHelper() int { return 1 }

// Live is constructed by main.
type Live struct{ name string }

// NewLive is called by main.
func NewLive() *Live { return &Live{name: "live"} }

// String is never called by name: fmt.Stringer keeps it live.
func (l *Live) String() string { return l.name }

// Size is never called: the local Sizer interface keeps it live.
func (l *Live) Size() int { return len(l.name) }

// Unused is a method of a live type that no interface names and no one
// calls.
func (l *Live) Unused() {} // want "method Live.Unused is unreachable"

// Sizer names Size. Only assertions name Sizer, so it is dead itself; a
// method name of any interface in the program still keeps Live.Size live.
type Sizer interface{ Size() int } // want "type Sizer is unreachable"

// Shape is what main calls Area through.
type Shape interface{ Area() float64 }

// Square is live through main's conversion to Shape.
type Square struct{}

// Area is reached through Shape.Area.
func (Square) Area() float64 { return 1 }

// ghost is dead, so its String method is dead too although fmt.Stringer
// names it.
type ghost struct{} // want "type ghost is unreachable"

func (ghost) String() string { return "ghost" } // want "method ghost.String is unreachable"

// Meter is named only by the blank assertion below, a compile-time check
// that keeps nothing live.
type Meter struct{} // want "type Meter is unreachable"

// Size is dead with Meter although Sizer names it.
func (*Meter) Size() int { return 0 } // want "method Meter.Size is unreachable"

var _ Sizer = (*Meter)(nil)

// Gauge is named only by a composite-literal assertion.
type Gauge struct{} // want "type Gauge is unreachable"

func (Gauge) Size() int { return 0 } // want "method Gauge.Size is unreachable"

var _ Sizer = Gauge{}

// Probe is live: its typed blank var calls newProbe, so it is a root.
type Probe struct{}

func (*Probe) Size() int { return 0 }

var _ interface{ Size() int } = newProbe()

func newProbe() *Probe { return &Probe{} }

var _ = registered()

func registered() bool { return true }

func init() { setup() }

func setup() {}

// OnlyTests is called from svc_test.go alone: tests are not roots.
func OnlyTests() {} // want "func OnlyTests is unreachable"

// OnlyExample is called from examples/demo alone: examples are not roots.
func OnlyExample() {} // want "func OnlyExample is unreachable"

// Kept is unreachable and kept: its directive covers its methods, and
// what they reach is live through them.
//
//lint:ignore deadcode the fixture's example illustrates it
type Kept struct{}

// Method is covered by Kept's directive.
func (Kept) Method() { keptHelper() }

func keptHelper() {}

// Reached is live, so a deadcode directive on it suppresses nothing.
//
/* want "unused //lint:ignore directive for deadcode" */ //lint:ignore deadcode stale reason
func Reached() {
	setup()
}

// Reach makes Reached live.
var _ = Reached
