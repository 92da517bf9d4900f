package core

import (
	"bufio"
	"errors"
	"strconv"
	"strings"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/machine"
)

// FuzzExec feeds arbitrary scripts through RunScript on a held toy
// session. No input may panic the tool or the simulation, and a script is
// refused only through RunScript's returned error: ErrUnknownCommand
// exactly when a line before the first quit names a command outside
// Table 1, a scanner error for unreadable input, nil otherwise. Every run
// must leave the target finished.
func FuzzExec(f *testing.F) {
	// A line the scanner cannot hold, before start: the target must still
	// be released, not left spinning at its first instruction.
	f.Add(strings.Repeat("x", bufio.MaxScanTokenSize) + "\nstart\n")
	f.Fuzz(func(t *testing.T, script string) {
		s := des.NewScheduler(17)
		var ss *Session
		var runErr error
		s.Spawn("dynprof", func(p *des.Proc) {
			var err error
			ss, err = NewSession(p, Config{
				Machine: machine.MustNew("ibm-power3"),
				App:     toyMPI(),
				Procs:   2,
				Args:    map[string]int{"iters": 2},
				Files:   map[string]string{"subset.list": "toy_compute\ntoy_exchange"},
			})
			if err != nil {
				t.Error(err)
				return
			}
			runErr = ss.RunScript(p, strings.NewReader(script))
		})
		if err := s.Run(); err != nil {
			t.Fatalf("simulation failed: %v", err)
		}
		if ss == nil {
			t.Fatal("session never created")
		}
		want := firstUnknown(script)
		switch {
		case want != "":
			if !errors.Is(runErr, ErrUnknownCommand) || !strings.Contains(runErr.Error(), strconv.Quote(want)) {
				t.Fatalf("unknown command %q: RunScript returned %v", want, runErr)
			}
		case errors.Is(runErr, ErrUnknownCommand):
			t.Fatalf("Table 1 script refused: %v", runErr)
		case runErr != nil && !errors.Is(runErr, bufio.ErrTooLong):
			t.Fatalf("RunScript returned %v", runErr)
		}
		if !ss.Job().Done() {
			t.Fatal("target did not finish")
		}
	})
}

// firstUnknown returns the first word of the first line, before any quit,
// that names no Table 1 command or shortcut ("" when there is none): the
// line RunScript must refuse with ErrUnknownCommand.
func firstUnknown(script string) string {
	known := map[string]bool{}
	for _, c := range Commands() {
		known[c.Name], known[c.Shortcut] = true, true
	}
	sc := bufio.NewScanner(strings.NewReader(script))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case !known[fields[0]]:
			return fields[0]
		case fields[0] == "quit" || fields[0] == "q":
			return ""
		}
	}
	return ""
}
