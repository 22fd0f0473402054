// Package trace defines the memory-reference record shared by the VM
// (which emits one per executed load or store) and internal/replay
// (which encodes the stream and replays it under arbitrary policies,
// including Belady's MIN), plus the write-only textual form of a record.
package trace

import (
	"bufio"
	"fmt"
)

// Kind distinguishes loads from stores.
type Kind uint8

// Reference kinds.
const (
	Load Kind = iota
	Store
)

func (k Kind) String() string {
	if k == Store {
		return "st"
	}
	return "ld"
}

// Rec is one data reference with its compiler control bits.
type Rec struct {
	Addr   int64
	Kind   Kind
	Bypass bool
	Last   bool
}

// Trace is a reference stream in program order.
type Trace []Rec

// Counts summarizes a trace.
type Counts struct {
	Refs   int
	Loads  int
	Stores int
	Bypass int
	Last   int
}

// Count tallies the trace.
func (t Trace) Count() Counts {
	var c Counts
	c.Refs = len(t)
	for _, r := range t {
		if r.Kind == Load {
			c.Loads++
		} else {
			c.Stores++
		}
		if r.Bypass {
			c.Bypass++
		}
		if r.Last {
			c.Last++
		}
	}
	return c
}

// WriteRec emits one record in the textual format "<ld|st> <addr> [b] [l]"
// followed by a newline. Streaming producers (internal/replay) emit whole
// traces record by record; the caller owns flushing.
func WriteRec(bw *bufio.Writer, r Rec) error {
	if _, err := fmt.Fprintf(bw, "%s %d", r.Kind, r.Addr); err != nil {
		return err
	}
	if r.Bypass {
		if _, err := bw.WriteString(" b"); err != nil {
			return err
		}
	}
	if r.Last {
		if _, err := bw.WriteString(" l"); err != nil {
			return err
		}
	}
	return bw.WriteByte('\n')
}
