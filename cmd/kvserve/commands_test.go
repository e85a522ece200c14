package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// mixedCase upper-cases every other letter: "get" -> "GeT".
func mixedCase(name string) []byte {
	b := []byte(name)
	for i := 0; i < len(b); i += 2 {
		b[i] -= 'a' - 'A'
	}
	return b
}

// TestCommandTable holds every row to what the rest of the server
// reads off it: names resolve whatever their case and without
// allocating, one argument too few is answered with the one arity
// error, and a well-formed command either rides the ring or has a
// handler to run it.
func TestCommandTable(t *testing.T) {
	s := newTestServer(t)
	for i := range commands {
		c := &commands[i]
		if c.name != strings.ToLower(c.name) {
			t.Errorf("row %q: the lookup needs a lowercase name", c.name)
		}
		for _, name := range [][]byte{[]byte(c.name), mixedCase(c.name), bytes.ToUpper([]byte(c.name))} {
			if got := lookupCommand(name); got != c {
				t.Errorf("lookupCommand(%q) = %v, want row %q", name, got, c.name)
			}
		}
		least := c.arity
		if least < 0 {
			least = -least
		}
		if !c.arityOK(least) {
			t.Errorf("row %q refuses its own minimal shape of %d arguments", c.name, least)
		}
		shapes := []int{least}
		if c.arity < 0 {
			shapes = append(shapes, least+c.step, least+2*c.step) // several keys
		}
		for _, n := range shapes {
			if c.arityOK(n) && !c.rides(n) && c.handler == nil {
				t.Errorf("row %q: nothing runs its %d-argument form", c.name, n)
			}
		}
		if least < 2 {
			continue // the name alone is well-formed: no way to send too few
		}
		args := append([]string{string(mixedCase(c.name))}, make([]string, least-2)...)
		want := fmt.Sprintf("ERR wrong number of arguments for '%s'", c.name)
		if err, ok := call(t, s, args...).(error); !ok || err.Error() != want {
			t.Errorf("%v = %v, want %q", args, err, want)
		}
	}
	for _, name := range []string{"", "ge", "gett", "g\x05t", "COMMAND", strings.Repeat("x", 100)} {
		if c := lookupCommand([]byte(name)); c != nil {
			t.Errorf("lookupCommand(%q) = row %q, want none", name, c.name)
		}
	}
	names := [][]byte{[]byte("COMMAND")}
	for i := range commands {
		names = append(names, mixedCase(commands[i].name))
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, name := range names {
			lookupCommand(name)
		}
	}); n != 0 {
		t.Errorf("lookupCommand: %.1f allocs over the table, want 0", n)
	}
}

// TestCommandSeriesFromTable: every row has its own cmd="<name>"
// counter and latency histogram, registered from the table, and
// cmd="other" is left to the verbs the table does not have.
func TestCommandSeriesFromTable(t *testing.T) {
	s := newTestServer(t)
	metrics := func() string {
		var buf bytes.Buffer
		if err := s.tele.reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	text := metrics()
	for i := range commands {
		for _, series := range []string{"addrkv_commands_total{cmd=%q} 0\n", "addrkv_command_latency_seconds_count{cmd=%q} 0\n"} {
			if want := fmt.Sprintf(series, commands[i].name); !strings.Contains(text, want) {
				t.Errorf("/metrics lacks %q", want)
			}
		}
	}
	call(t, s, "TRACE", "STATUS")
	text = metrics()
	for _, want := range []string{`addrkv_commands_total{cmd="trace"} 1`, `addrkv_commands_total{cmd="other"} 0`} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("after TRACE STATUS /metrics lacks %q", want)
		}
	}
	call(t, s, "COMMAND")
	if want := `addrkv_commands_total{cmd="other"} 1`; !strings.Contains(metrics(), want+"\n") {
		t.Errorf("after an unknown verb /metrics lacks %q", want)
	}
}
