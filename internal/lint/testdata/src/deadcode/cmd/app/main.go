// Command app is the fixture's binary: its main and init are roots.
package main

import (
	"fmt"

	"fix/internal/svc"
)

func main() {
	var s svc.Shape = svc.Square{}
	fmt.Println(s.Area(), svc.NewLive(), svc.Chained())
}

func unusedInMain() {} // want "func unusedInMain is unreachable"
