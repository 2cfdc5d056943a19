// Package noclosuresched declares nothing: no eventsim.Engine method takes
// a func, so a closure cannot be scheduled and there is no call to check
// (see TestEngineSchedulesNoClosure). The path stays only while
// bench/layers.go lists it, and goes with that entry.
package noclosuresched
