//go:build !linux

package netsim

import "time"

// pacer is the Linux timerfd that delivers frames on time (pacer_linux.go);
// elsewhere frames keep the Go runtime's own timer resolution.
type pacer struct{}

func (*pacer) sleeping(time.Time) {}
func (*pacer) woke(time.Time)     {}
func (*pacer) close()             {}
