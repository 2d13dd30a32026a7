package main

import "fix/internal/lib"

func main() { lib.Used(); lib.Helper() }
