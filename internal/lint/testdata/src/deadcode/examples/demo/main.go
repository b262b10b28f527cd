// Command demo is an example: not a root, and not checked.
package main

import "fix/internal/svc"

func main() { svc.OnlyExample(); svc.Kept{}.Method() }

func unusedInExample() {}
