//go:build !race

package main

const smokeSeconds = 1.5
