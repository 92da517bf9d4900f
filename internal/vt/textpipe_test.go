package vt

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ReadTrace parses in blocks of textBlockLines lines (fewer when a block
// reaches textBlockBytes). These tests put the general-path lines, errors
// and scan failures on and around the block seams and require the result
// of the sequential reference parser.

// evtLine is a fast-path EVT record for line n of a generated trace: lanes
// interleave on every line and times rise.
func evtLine(n int) string {
	return fmt.Sprintf("EVT %d %d %d %s %d %d %d\n", 10*n, n%3, n%2, Kind(n%len(kindNames)), n%5, n, -n)
}

// seamTrace returns a trace of lines lines whose 1-based line n is
// slow(n) when that is non-empty, and a fast-path EVT record otherwise.
func seamTrace(lines int, slow func(n int) string) []byte {
	var b strings.Builder
	for n := 1; n <= lines; n++ {
		if s := slow(n); s != "" {
			b.WriteString(s)
			continue
		}
		b.WriteString(evtLine(n))
	}
	return []byte(b.String())
}

// nearSeam reports whether 1-based line n is within one line of a
// line-count block boundary.
func nearSeam(n int) bool {
	r := n % textBlockLines
	return r <= 1 || r == textBlockLines-1
}

func TestReadTraceBlockSeams(t *testing.T) {
	lines := 4*textBlockLines + 100
	// Each form is a line the fast path leaves to the general path; all
	// of them are accepted.
	forms := []func(n int) string{
		func(n int) string { return fmt.Sprintf("EVT +%d 1 0 enter 2 0 0\n", 10*n) },
		func(n int) string { return fmt.Sprintf("EVT %d 1 0 exit 2 0 0\n", 10*n) },
		func(n int) string { return fmt.Sprintf("EVT %d -1 -2 send 3 4 5\n", 10*n) },
		func(n int) string { return fmt.Sprintf("FUNC %d %d name at line %d\n", n%4, n, n) },
		func(n int) string { return fmt.Sprintf("FUNC 0 %d fünf %d\n", n, n) },
		func(n int) string { return "# comment\n" },
		func(n int) string { return "   \n" },
	}
	for i, form := range forms {
		t.Run(fmt.Sprintf("form%d", i), func(t *testing.T) {
			input := seamTrace(lines, func(n int) string {
				if nearSeam(n) {
					return form(n)
				}
				return ""
			})
			checkReadersAgree(t, input)
		})
	}
	t.Run("every-line", func(t *testing.T) {
		// Fast and slow lines alternate, across every seam.
		checkReadersAgree(t, seamTrace(lines, func(n int) string {
			if n%2 == 0 {
				return forms[n%len(forms)](n)
			}
			return ""
		}))
	})
	t.Run("byte-cut", func(t *testing.T) {
		// Long FUNC names make blocks end on textBlockBytes instead of on
		// the line count, so the seams fall at irregular lines.
		long := strings.Repeat("n", textBlockBytes/3)
		checkReadersAgree(t, seamTrace(lines, func(n int) string {
			switch {
			case n%97 == 0:
				return fmt.Sprintf("FUNC 1 %d %s\n", n, long)
			case n%89 == 0:
				return forms[1](n)
			}
			return ""
		}))
	})
}

func TestReadTraceErrorInThirdBlock(t *testing.T) {
	bad := 2*textBlockLines + 7 // the third block's seventh line
	for _, line := range []string{
		"EVT 1 0 0 enter 0 0\n",
		"EVT 1 0 0 bogus 0 0 0\n",
		"EVT 1 0 0 enter 0 0 x\n",
		"FUNC 2147483648 0 main\n",
		"SOMETHING else\n",
	} {
		input := seamTrace(4*textBlockLines, func(n int) string {
			switch n {
			case bad:
				return line
			case bad + textBlockLines:
				return "EVT 1 0 0 bogus 0 0 0\n" // a later error must not win
			}
			return ""
		})
		checkReadersAgree(t, input)
		_, err := ReadTrace(bytes.NewReader(input))
		if want := fmt.Sprintf("trace line %d:", bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("malformed %q: err = %v, want it to name %q", line, err, want)
		}
	}
}

func TestReadTraceTooLongAfterBlocks(t *testing.T) {
	head := seamTrace(5*textBlockLines+3, func(int) string { return "" })
	for _, tail := range []string{
		strings.Repeat("y", 1<<20+1),
		"EVT " + strings.Repeat("1", 1<<20) + " 0 0 enter 0 0 0\n" + evtLine(1),
	} {
		input := append(append([]byte{}, head...), tail...)
		checkReadersAgree(t, input)
		col, err := ReadTrace(bytes.NewReader(input))
		if !errors.Is(err, bufio.ErrTooLong) || col != nil {
			t.Fatalf("ReadTrace = %v, %v; want nil, bufio.ErrTooLong", col, err)
		}
	}
	// An error before the long line wins over the scan failure.
	bad := append(seamTrace(3*textBlockLines, func(n int) string {
		if n == 2*textBlockLines {
			return "EVT 1\n"
		}
		return ""
	}), strings.Repeat("y", 1<<20+1)...)
	checkReadersAgree(t, bad)
}

// settleGoroutines waits until no more than want goroutines run, failing
// the test if that does not happen within a few seconds.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, started with %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errInjected = errors.New("injected failure")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errInjected
	}
	w.n -= len(p)
	return len(p), nil
}

// failingReader serves r until n bytes have been read, then fails.
type failingReader struct {
	r io.Reader
	n int
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, errInjected
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	n, err := r.r.Read(p)
	r.n -= n
	return n, err
}

func TestWriteTraceStopsOnWriteError(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	col.AddFuncTable(0, map[int32]string{0: "main", 1: "solve"})
	for r := int32(0); r < 4; r++ {
		col.Append(mkBatch(r, 0, 5*chunkEvents))
	}
	var full bytes.Buffer
	if err := col.WriteTrace(&full); err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	for _, n := range []int{0, 10, 64 << 10, full.Len() / 3, full.Len() - 1} {
		if err := col.WriteTrace(&failingWriter{n: n}); !errors.Is(err, errInjected) {
			t.Fatalf("writer failing after %d of %d bytes: err = %v", n, full.Len(), err)
		}
		settleGoroutines(t, start)
	}
}

func TestReadTraceStopsOnReadError(t *testing.T) {
	input := seamTrace(6*textBlockLines, func(int) string { return "" })
	start := runtime.NumGoroutine()
	// The reader fails after whole lines: a line it cuts short would be
	// scanned, as the reference scans it, as a malformed last line.
	for _, lines := range []int{0, 1, 3*textBlockLines + 5, 6*textBlockLines - 1} {
		n := 0
		for range lines {
			n += bytes.IndexByte(input[n:], '\n') + 1
		}
		col, err := ReadTrace(&failingReader{r: bytes.NewReader(input), n: n})
		if !errors.Is(err, errInjected) || col != nil {
			t.Fatalf("reader failing after %d of %d bytes: ReadTrace = %v, %v", n, len(input), col, err)
		}
		settleGoroutines(t, start)
	}
	// A parse error stops the pipeline just as cleanly.
	bad := seamTrace(6*textBlockLines, func(n int) string {
		if n == textBlockLines+1 {
			return "EVT x\n"
		}
		return ""
	})
	if _, err := ReadTrace(bytes.NewReader(bad)); err == nil {
		t.Fatal("ReadTrace accepted a malformed line")
	}
	settleGoroutines(t, start)
}
