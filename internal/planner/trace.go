package planner

import "fmt"

// EventKind classifies one entry in a Decision's trail.
type EventKind int

// Trace event kinds, in rough lifecycle order.
const (
	// EvEstimate records the initial candidate scoring.
	EvEstimate EventKind = iota
	// EvChoose records a configuration being applied to a Config.
	EvChoose
	// EvSkip records a conf key the planner left alone because the user
	// set it explicitly.
	EvSkip
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvEstimate:
		return "estimate"
	case EvChoose:
		return "choose"
	case EvSkip:
		return "skip"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one decision-trail entry.
type Event struct {
	Kind   EventKind
	Detail string
}

// String renders the event as one trail line.
func (e Event) String() string {
	return fmt.Sprintf("[%s] %s", e.Kind, e.Detail)
}

// Trace is a decision trail: every estimate, choice and skipped key, in
// order.
type Trace struct {
	events []Event
}

func (t *Trace) add(kind EventKind, detail string) {
	t.events = append(t.events, Event{Kind: kind, Detail: detail})
}

// Events returns a copy of the trail so far.
func (t *Trace) Events() []Event {
	return append([]Event(nil), t.events...)
}
