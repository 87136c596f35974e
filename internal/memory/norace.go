//go:build !race

package memory

// releaseCheck is empty outside race builds: release checking costs nothing
// there (see race.go).
type releaseCheck struct{}

func (releaseCheck) released([]byte, bool) {}
func (releaseCheck) reused([]byte)         {}
