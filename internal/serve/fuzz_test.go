package serve_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dynprof/internal/des"
	"dynprof/internal/machine"
	"dynprof/internal/serve"
)

// pipeListener is a net.Listener over in-memory net.Pipe connections, so
// a harness that starts thousands of bridges opens no sockets.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial connects to the listener; it fails once the listener is closed.
func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		client.SetDeadline(time.Now().Add(30 * time.Second))
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// startBridge serves a leased Server with one resident 2-rank job "smg"
// over a pipe listener, on a scheduler configured by opts; it returns the
// listener and Serve's result.
func startBridge(t *testing.T, opts ...des.Option) (*pipeListener, <-chan error) {
	t.Helper()
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	s := des.NewScheduler(7, opts...)
	sv := serve.New(s, serve.Config{Machine: machine.MustNew("ibm-power3"), Lease: 30 * des.Second})
	if _, err := sv.RegisterResident("smg", 2, nil); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- serve.NewBridge(sv, ln).Serve() }()
	return ln, errc
}

// TestProtoOverlongLine: a line longer than the bridge scans gets one err
// reply before the connection is dropped, not a silent close,
// and the bridge keeps serving other connections.
func TestProtoOverlongLine(t *testing.T) {
	ln, errc := startBridge(t)
	c, err := ln.dial()
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	fmt.Fprintf(c, "open alice smg\n")
	if got, _ := r.ReadString('\n'); !strings.HasPrefix(got, "ok open alice") {
		t.Fatalf("open reply %q", got)
	}
	fmt.Fprintf(c, "insert %s\n", strings.Repeat("f", bufio.MaxScanTokenSize))
	if got, _ := r.ReadString('\n'); !strings.HasPrefix(got, "err line longer than 65535 bytes") {
		t.Fatalf("overlong-line reply %q", got)
	}
	if rest, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("connection still open after the overlong line: %q, %v", rest, err)
	}
	shutdown(t, ln, errc)
}

// shutdown ends the bridge on ln from a fresh connection and checks that
// Serve returned cleanly.
func shutdown(t *testing.T, ln *pipeListener, errc <-chan error) {
	t.Helper()
	c, err := ln.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "shutdown\n")
	if got, _ := bufio.NewReader(c).ReadString('\n'); got != "ok shutdown\n" {
		t.Fatalf("shutdown reply %q", got)
	}
	if err := <-errc; err != nil {
		t.Fatalf("bridge: %v", err)
	}
}

// maxFuzzWait bounds the virtual seconds one FuzzBridge input may wait,
// so the resident job's simulation stays short in host time.
const maxFuzzWait = 10

// FuzzBridge sends arbitrary client bytes to a live Bridge, one line at a
// time as a client awaiting each reply would. Invariants: the bridge never
// panics (Serve returns nil); every command — a line that is not blank or
// a # comment — gets exactly one reply line, and a line too long to scan
// one as well; every reply is "ok ..." or "err ...", so a rejection is
// always an err reply; and the connection closes only after a quit, a
// shutdown or an overlong line.
func FuzzBridge(f *testing.F) {
	// The longest line the bridge scans, and one byte more.
	long := "insert " + strings.Repeat("x", bufio.MaxScanTokenSize-len("insert "))
	f.Add([]byte("open alice smg\n" + long[1:] + "\nlist\n"))
	f.Add([]byte("open alice smg\n" + long + "\nlist\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if waited(data) > maxFuzzWait {
			t.Skip("waits longer than the harness simulates")
		}
		ln, errc := startBridge(t)
		c, err := ln.dial()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		r := bufio.NewReader(c)
		closed, shut := false, false
		sc := bufio.NewScanner(bytes.NewReader(data))
		var off, pending int // bytes of data scanned, and those not yet sent
		sc.Split(func(d []byte, atEOF bool) (int, []byte, error) {
			adv, tok, err := bufio.ScanLines(d, atEOF)
			off += adv
			return adv, tok, err
		})
		for !closed {
			var send []byte
			overlong := false
			if sc.Scan() {
				if line := strings.TrimSpace(sc.Text()); line == "" || strings.HasPrefix(line, "#") {
					continue
				}
				send = data[pending:off]
			} else if errors.Is(sc.Err(), bufio.ErrTooLong) {
				// Send the line through its newline, or end it.
				end := bytes.IndexByte(data[off:], '\n')
				if end < 0 {
					end = len(data) - off
				}
				send, overlong = data[pending:off+end], true
			} else {
				break
			}
			pending = off
			if !bytes.HasSuffix(send, []byte("\n")) {
				// The last line, or an overlong one, ends here; nothing
				// after a command's newline may be sent before its reply,
				// since the pipe hands bytes over synchronously.
				send = append(send[:len(send):len(send)], '\n')
			}
			if _, err := c.Write(send); err != nil {
				t.Fatalf("write: %v", err)
			}
			reply, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("no reply to %q: %v", clip(send), err)
			}
			if !strings.HasPrefix(reply, "ok ") && !strings.HasPrefix(reply, "err ") {
				t.Fatalf("reply %q to %q is neither ok nor err", reply, clip(send))
			}
			shut = shut || reply == "ok shutdown\n"
			closed = overlong || shut || reply == "ok quit\n"
			if overlong && !strings.HasPrefix(reply, "err line longer") {
				t.Fatalf("overlong line answered %q", reply)
			}
		}
		if closed {
			if rest, err := r.ReadString('\n'); err == nil {
				t.Fatalf("reply %q after the connection should have closed", rest)
			}
		}
		if shut {
			if err := <-errc; err != nil {
				t.Fatalf("bridge: %v", err)
			}
			return
		}
		shutdown(t, ln, errc)
	})
}

// waited sums the finite durations of data's wait commands that parse (the
// bridge refuses the rest).
func waited(data []byte) float64 {
	sum := 0.0
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) > 0 {
			if _, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
				fields = fields[1:]
			}
		}
		if len(fields) == 2 && (fields[0] == "wait" || fields[0] == "w") {
			if d, err := strconv.ParseFloat(fields[1], 64); err == nil && d > 0 && !math.IsInf(d, 1) {
				sum += d
			}
		}
	}
	return sum
}

// clip shortens a sent line for a failure message.
func clip(b []byte) string {
	if len(b) > 80 {
		return fmt.Sprintf("%.80s...(%d bytes)", b, len(b))
	}
	return string(b)
}
