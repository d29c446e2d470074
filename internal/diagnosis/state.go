package diagnosis

import (
	"encoding/binary"
	"fmt"

	"repro/internal/event"
)

// Aggregate checkpoint encoding
//
// The resident session persists its running Aggregate across restarts.
// Everything the struct holds is integers, dense tables and point slices,
// so the encoding is a flat little-endian record: fixed header, the three
// per-cause tables, then four length-prefixed arrays. Point order is
// preserved verbatim, but not how much of it was settled: a decoded
// aggregate starts unsettled, and since Settle sorts into a total order it
// settles into exactly the bytes an uninterrupted one would.

const (
	aggStateVersion = 1

	aggHeaderSize = 8 + 4 + 4 + 8*5 + 3*8*nc + 4*4
	aggPointSize  = 16
)

// EncodeState serializes the aggregate for a checkpoint.
func (a *Aggregate) EncodeState() []byte {
	size := aggHeaderSize + 4*len(a.site) + 8*len(a.daily) + aggPointSize*(len(a.srcPts)+len(a.posPts))
	out := make([]byte, 0, size)
	u32 := func(v uint32) { out = binary.LittleEndian.AppendUint32(out, v) }
	i64 := func(v int64) { out = binary.LittleEndian.AppendUint64(out, uint64(v)) }

	i64(aggStateVersion)
	u32(uint32(a.sink))
	u32(0)
	i64(a.start)
	i64(a.dayLen)
	i64(int64(a.days))
	i64(int64(a.total))
	i64(int64(a.loops))
	for i := 0; i < nc; i++ {
		i64(int64(a.byCause[i]))
	}
	for i := 0; i < nc; i++ {
		i64(int64(a.atSink[i]))
	}
	for i := 0; i < nc; i++ {
		i64(int64(a.serverSite[i]))
	}
	u32(uint32(len(a.site)))
	u32(uint32(len(a.daily)))
	u32(uint32(len(a.srcPts)))
	u32(uint32(len(a.posPts)))
	for _, v := range a.site {
		u32(uint32(v))
	}
	for _, v := range a.daily {
		i64(int64(v))
	}
	points := func(pts []Point) {
		for _, p := range pts {
			i64(p.Time)
			u32(uint32(p.Node))
			u32(uint32(p.Cause))
		}
	}
	points(a.srcPts)
	points(a.posPts)
	return out
}

// DecodeAggregate rebuilds an aggregate from EncodeState bytes. Every
// length field is validated against the actual payload size before anything
// is allocated from it.
func DecodeAggregate(data []byte) (*Aggregate, error) {
	if len(data) < aggHeaderSize {
		return nil, fmt.Errorf("diagnosis: aggregate state truncated (%d bytes)", len(data))
	}
	off := 0
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v
	}
	i64 := func() int64 {
		v := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		return v
	}

	if v := i64(); v != aggStateVersion {
		return nil, fmt.Errorf("diagnosis: unsupported aggregate state version %d", v)
	}
	a := &Aggregate{}
	a.sink = event.NodeID(u32())
	u32() // reserved
	a.start = i64()
	a.dayLen = i64()
	days := i64()
	total := i64()
	loops := i64()
	if days < 0 || days > 1<<20 || total < 0 || loops < 0 {
		return nil, fmt.Errorf("diagnosis: aggregate state implausible (days %d, total %d, loops %d)", days, total, loops)
	}
	a.days = int(days)
	a.total = int(total)
	a.loops = int(loops)
	for i := 0; i < nc; i++ {
		a.byCause[i] = int(i64())
	}
	for i := 0; i < nc; i++ {
		a.atSink[i] = int(i64())
	}
	for i := 0; i < nc; i++ {
		a.serverSite[i] = int(i64())
	}
	siteLen := uint64(u32())
	dailyLen := uint64(u32())
	srcLen := uint64(u32())
	posLen := uint64(u32())
	want := uint64(aggHeaderSize) + 4*siteLen + 8*dailyLen + aggPointSize*(srcLen+posLen)
	if uint64(len(data)) != want {
		return nil, fmt.Errorf("diagnosis: aggregate state holds %d bytes, lengths demand %d", len(data), want)
	}
	if siteLen%uint64(nc) != 0 || (a.days > 0 && dailyLen != uint64(a.days*nc)) || (a.days == 0 && dailyLen != 0) {
		return nil, fmt.Errorf("diagnosis: aggregate state tables inconsistent (site %d, daily %d, days %d)", siteLen, dailyLen, a.days)
	}
	if siteLen > 0 {
		a.site = make([]int32, siteLen)
		for i := range a.site {
			a.site[i] = int32(u32())
		}
	}
	if dailyLen > 0 {
		a.daily = make([]int, dailyLen)
		for i := range a.daily {
			a.daily[i] = int(i64())
		}
	}
	points := func(n uint64) ([]Point, error) {
		if n == 0 {
			return nil, nil
		}
		pts := make([]Point, n)
		for i := range pts {
			pts[i].Time = i64()
			pts[i].Node = event.NodeID(u32())
			c := u32()
			if c >= uint32(numCauses) {
				return nil, fmt.Errorf("diagnosis: aggregate state point carries cause %d", c)
			}
			pts[i].Cause = Cause(c)
		}
		return pts, nil
	}
	var err error
	if a.srcPts, err = points(srcLen); err != nil {
		return nil, err
	}
	if a.posPts, err = points(posLen); err != nil {
		return nil, err
	}
	return a, nil
}
