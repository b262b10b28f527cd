// Package fix is the fixture's root package: its exported API is a root.
package fix

import "fix/internal/svc"

// API is root-package API, so it is live and so is what it calls.
func API() string { return svc.Used() }

// Handle is root-package API; its exported methods are too.
type Handle struct{}

// Close is live as root-package API although nothing calls it.
func (Handle) Close() {}

func unusedRoot() {} // want "func unusedRoot is unreachable"
