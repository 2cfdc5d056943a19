// Package trace declares nothing. The path stays only while
// bench/layers.go lists it, and goes with that entry.
package trace
