package main

import "fix/internal/lib"

func main() {
	var r lib.Reader = lib.T{}
	_ = r.Used()
}
