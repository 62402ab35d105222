//go:build race

package main

// raceEnabled: under the race detector most CPU samples land in its C
// runtime, which has no Go package, so the profile fold (rightly) refuses to
// report; the smoke test then runs the untraced pass only.
const raceEnabled = true
