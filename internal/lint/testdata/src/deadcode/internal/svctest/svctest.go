// Package svctest is test support: only svc's tests import it, so nothing
// in it is reported.
package svctest

// Helper is called by svc's tests alone.
func Helper() {}

func unusedHelper() {}
