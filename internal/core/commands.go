package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"dynprof/internal/des"
)

// ErrUnknownCommand marks the error Exec returns for a command outside
// Table 1. Unlike a failed insert (which a script may tolerate and carry
// on), an unknown command means the script itself is wrong, so RunScript
// treats it as fatal; session clients match it with errors.Is.
var ErrUnknownCommand = errors.New("unknown command")

// helpText is Table 1: the commands accepted by the dynprof tool.
const helpText = `dynprof commands:
  help         (h)   Displays a help message
  insert       (i)   Inserts instrumentation into one or more functions
  remove       (r)   Removes instrumentation from one or more functions
  insert-file  (if)  Inserts instrumentation into all of the functions
                     listed in the provided file or files
  remove-file  (rf)  Removes instrumentation from all of the functions
                     listed in the provided file or files
  start        (s)   Starts execution of the target application
  quit         (q)   Detaches the instrumenter from the application
  wait         (w)   Causes the tool to wait before executing the next
                     command (argument: seconds)
`

// CommandInfo is one row of Table 1.
type CommandInfo struct {
	Name     string
	Shortcut string
	Desc     string
}

// Commands returns Table 1: the commands accepted by the dynprof tool.
func Commands() []CommandInfo {
	return []CommandInfo{
		{"help", "h", "Displays a help message"},
		{"insert", "i", "Inserts instrumentation into one or more functions."},
		{"remove", "r", "Removes instrumentation from one or more functions."},
		{"insert-file", "if", "Inserts instrumentation into all of the functions listed in the provided file or files."},
		{"remove-file", "rf", "Removes instrumentation from all of the functions listed in the provided file or files."},
		{"start", "s", "Starts execution of the target application."},
		{"quit", "q", "Detaches the instrumenter from the application."},
		{"wait", "w", "Causes the tool to wait before executing the next command."},
	}
}

// Shortcuts maps each Table 1 shortcut to its full command name.
var Shortcuts = func() map[string]string {
	m := make(map[string]string)
	for _, c := range Commands() {
		m[c.Shortcut] = c.Name
	}
	return m
}()

// Exec runs one dynprof command line. It returns done=true after quit.
func (ss *Session) Exec(p *des.Proc, line string) (done bool, err error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return false, nil
	}
	cmd := fields[0]
	if full, ok := Shortcuts[cmd]; ok {
		cmd = full
	}
	args := fields[1:]
	switch cmd {
	case "help":
		fmt.Fprint(ss.out, helpText)
		return false, nil
	case "insert":
		if len(args) == 0 {
			return false, fmt.Errorf("dynprof: insert needs at least one function")
		}
		return false, ss.Insert(p, args...)
	case "remove":
		if len(args) == 0 {
			return false, fmt.Errorf("dynprof: remove needs at least one function")
		}
		return false, ss.Remove(p, args...)
	case "insert-file":
		funcs, err := ss.readFuncFiles(args)
		if err != nil {
			return false, err
		}
		return false, ss.Insert(p, funcs...)
	case "remove-file":
		funcs, err := ss.readFuncFiles(args)
		if err != nil {
			return false, err
		}
		return false, ss.Remove(p, funcs...)
	case "start":
		ss.Start(p)
		return false, nil
	case "quit":
		ss.Quit(p)
		return true, nil
	case "wait":
		d := des.Second
		if len(args) > 0 {
			var err error
			if d, err = des.ParseSeconds(args[0], p.Now()); err != nil {
				return false, fmt.Errorf("dynprof: bad wait duration %q", args[0])
			}
		}
		p.Advance(d)
		return false, nil
	default:
		return false, fmt.Errorf("dynprof: %w %q (try help)", ErrUnknownCommand, fields[0])
	}
}

// readFuncFiles resolves insert-file/remove-file arguments: each is a file
// whose whitespace-separated tokens are function names.
func (ss *Session) readFuncFiles(files []string) ([]string, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("dynprof: command needs at least one file")
	}
	var funcs []string
	for _, f := range files {
		content, ok := ss.cfg.Files[f]
		if !ok {
			return nil, fmt.Errorf("dynprof: cannot open %q", f)
		}
		funcs = append(funcs, strings.Fields(content)...)
	}
	return funcs, nil
}

// RunScript feeds a command script to the session line by line ("to allow
// users to write instrumentation scripts... a user can prepare a text file
// that includes commands, and direct this file into dynprof"). It stops at
// quit, at end of input or at an unreadable line (one longer than
// bufio.MaxScanTokenSize, returned as the scanner's error); a session
// still attached then is quit.
//
// Command failures (a misspelled function name, a missing file) are
// reported and the script carries on — the interactive model. An unknown
// command, however, aborts the script with ErrUnknownCommand: silently
// skipping it would let a typo'd script run to completion looking
// successful. The session is quit first so the target is not orphaned.
func (ss *Session) RunScript(p *des.Proc, r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		done, err := ss.Exec(p, sc.Text())
		if err != nil {
			fmt.Fprintf(ss.out, "%v\n", err)
			if errors.Is(err, ErrUnknownCommand) {
				ss.Quit(p)
				return err
			}
		}
		if done {
			return sc.Err()
		}
	}
	ss.Quit(p)
	return sc.Err()
}
