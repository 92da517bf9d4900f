package vt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dynprof/internal/des"
)

// This file keeps the straightforward fmt/strings implementation of the
// textual trace codec as a reference oracle: the differential tests and
// FuzzReadTrace require the production codec to write the same bytes and
// to accept exactly the inputs refReadTrace accepts, with the same errors.

// refWriteTrace is the reference WriteTrace.
func refWriteTrace(col *Collector, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# vgvtrace 1"); err != nil {
		return err
	}
	for _, rank := range col.Ranks() {
		t := col.funcs[rank]
		ids := make([]int32, 0, len(t))
		for id := range t {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if _, err := fmt.Fprintf(bw, "FUNC %d %d %s\n", rank, id, t[id]); err != nil {
				return err
			}
		}
	}
	for _, e := range col.Ordered().AppendTo(nil) {
		if _, err := fmt.Fprintf(bw, "EVT %d %d %d %s %d %d %d\n",
			int64(e.At), e.Rank, e.TID, e.Kind, e.ID, e.A, e.B); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// refFitsInt32 reports whether v fits an int32 record field.
func refFitsInt32(v int64) bool { return v >= -1<<31 && v < 1<<31 }

// refReadTrace is the reference ReadTrace, int32 range checks on ranks,
// thread ids, function ids and message peers included. A scan failure
// returns only the error, with no collector.
func refReadTrace(r io.Reader) (*Collector, error) {
	col := NewCollector()
	var evs []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "FUNC":
			if len(fields) < 4 {
				return nil, fmt.Errorf("vt: trace line %d: short FUNC record", line)
			}
			rank, err1 := strconv.Atoi(fields[1])
			id, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("vt: trace line %d: bad FUNC ids", line)
			}
			if !refFitsInt32(int64(rank)) || !refFitsInt32(int64(id)) {
				return nil, fmt.Errorf("vt: trace line %d: FUNC ids out of int32 range", line)
			}
			col.AddFuncTable(int32(rank), map[int32]string{int32(id): strings.Join(fields[3:], " ")})
		case "EVT":
			if len(fields) != 8 {
				return nil, fmt.Errorf("vt: trace line %d: EVT needs 8 fields, has %d", line, len(fields))
			}
			var nums [7]int64
			for i, f := range []string{fields[1], fields[2], fields[3], fields[5], fields[6], fields[7]} {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("vt: trace line %d: %v", line, err)
				}
				nums[i] = v
			}
			if !refFitsInt32(nums[1]) || !refFitsInt32(nums[2]) || !refFitsInt32(nums[3]) {
				return nil, fmt.Errorf("vt: trace line %d: EVT rank/tid/id out of int32 range", line)
			}
			kind, ok := kindFromBytes([]byte(fields[4]))
			if !ok {
				return nil, fmt.Errorf("vt: trace line %d: unknown kind %q", line, fields[4])
			}
			if (kind == MsgSend || kind == MsgRecv) && !refFitsInt32(nums[4]) {
				return nil, fmt.Errorf("vt: trace line %d: EVT message peer out of int32 range", line)
			}
			evs = append(evs, Event{
				At: des.Time(nums[0]), Rank: int32(nums[1]), TID: int32(nums[2]),
				Kind: kind, ID: int32(nums[3]), A: nums[4], B: nums[5],
			})
		default:
			return nil, fmt.Errorf("vt: trace line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		col.Release()
		return nil, err
	}
	col.Append(evs)
	return col, nil
}
