package network

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/diagnosis"
	"repro/internal/event"
)

// Ground-truth fate text format: one packet per line,
//
//	<packet> <cause> <position> <toward> <time> <gentime> <hops> <loop>
//
// used by cmd/citysee to persist ground truth and cmd/refill to score
// reconstructions offline.

// WriteFates writes the fates sorted by packet ID.
func WriteFates(w io.Writer, fates map[event.PacketID]Fate) error {
	ids := make([]event.PacketID, 0, len(fates))
	for id := range fates {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	bw := bufio.NewWriter(w)
	for _, id := range ids {
		f := fates[id]
		if _, err := fmt.Fprintf(bw, "%s %s %s %s %d %d %d %t\n",
			id, f.Cause, f.Position, f.Toward, f.Time, f.GenTime, f.Hops, f.Loop); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseCause resolves a cause name.
func parseCause(s string) (diagnosis.Cause, error) {
	for _, c := range diagnosis.Causes() {
		if c.String() == s {
			return c, nil
		}
	}
	return diagnosis.Unknown, fmt.Errorf("network: unknown cause %q", s)
}

// ReadFates parses the format written by WriteFates.
func ReadFates(r io.Reader) (map[event.PacketID]Fate, error) {
	out := make(map[event.PacketID]Fate)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 8 {
			return nil, fmt.Errorf("line %d: want 8 fields, got %d", lineno, len(fields))
		}
		id, err := event.ParsePacketID(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		var f Fate
		if f.Cause, err = parseCause(fields[1]); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		if f.Position, err = event.ParseNodeID(fields[2]); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		if f.Toward, err = event.ParseNodeID(fields[3]); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		if f.Time, err = strconv.ParseInt(fields[4], 10, 64); err != nil {
			return nil, fmt.Errorf("line %d: bad time: %v", lineno, err)
		}
		if f.GenTime, err = strconv.ParseInt(fields[5], 10, 64); err != nil {
			return nil, fmt.Errorf("line %d: bad gentime: %v", lineno, err)
		}
		if f.Hops, err = strconv.Atoi(fields[6]); err != nil {
			return nil, fmt.Errorf("line %d: bad hops: %v", lineno, err)
		}
		if f.Loop, err = strconv.ParseBool(fields[7]); err != nil {
			return nil, fmt.Errorf("line %d: bad loop flag: %v", lineno, err)
		}
		out[id] = f
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
