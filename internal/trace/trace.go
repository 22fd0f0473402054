// Package trace defines the memory-reference trace format shared by the VM
// (which records traces) and the trace-driven cache simulator (which
// replays them under arbitrary policies, including Belady's MIN).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
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

// Write emits the trace in the textual format "<ld|st> <addr> [b] [l]" one
// record per line.
func (t Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range t {
		if err := WriteRec(bw, r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteRec emits one record in Write's textual format. It exists so
// streaming producers (internal/replay) can emit the format without
// materializing a Trace; the caller owns flushing.
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

// Read parses the textual trace format produced by Write.
func Read(r io.Reader) (Trace, error) {
	var t Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("trace: line %d: need kind and address", lineNo)
		}
		var rec Rec
		switch fields[0] {
		case "ld":
			rec.Kind = Load
		case "st":
			rec.Kind = Store
		default:
			return nil, fmt.Errorf("trace: line %d: bad kind %q", lineNo, fields[0])
		}
		addr, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			// Sscanf("%d") would silently accept trailing garbage such as
			// "12abc"; ParseInt rejects the whole field.
			return nil, fmt.Errorf("trace: line %d: bad address %q", lineNo, fields[1])
		}
		rec.Addr = addr
		for _, f := range fields[2:] {
			switch f {
			case "b":
				rec.Bypass = true
			case "l":
				rec.Last = true
			default:
				return nil, fmt.Errorf("trace: line %d: bad flag %q", lineNo, f)
			}
		}
		t = append(t, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
