package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/sim"
)

// uploadEvery is the on-device uploader's period in simulated time: weekly,
// as on the study's TCP collector path.
const uploadEvery = 7 * 24 * time.Hour

// upload is one captured CHUNK: which device sent it, the device's
// simulated clock when it did, and the stream offset and bytes.
type upload struct {
	dev    int
	at     sim.Time
	offset int
	data   []byte
}

// capture is the paper deployment's real upload traffic, recorded once per
// seed, with the in-process reference of what a healthy server must hold
// after each upload.
type capture struct {
	ids     []string
	uploads []upload // in deployment order: simulated time, then device
	hours   float64  // observed phone-hours of the captured deployment
	// refs[d][i] is device d's dataset bytes after its first i+1 uploads,
	// computed by Dataset.PutMerged in-process; recs[d][i] counts its
	// records.
	refs [][][]byte
	recs [][]int
	// inputs is the server-side stream after each upload, in deployment
	// order: the captured input of the layer-alone replays.
	inputs []devLog
}

// recorder is the capture's collect.Transport: it records every chunk
// and acknowledges offset+len, which is what a healthy server answers.
type recorder struct {
	devs  []*phone.Device
	index map[string]int

	mu      sync.Mutex
	uploads []upload
	offsets int
}

func (r *recorder) UploadChunk(_, id string, offset int, chunk []byte) (int, error) {
	i := r.index[id]
	// The uploader runs inside the device's own event, on the worker that
	// owns the device's engine, so reading its clock here is safe.
	u := upload{dev: i, at: r.devs[i].Now(), offset: offset, data: append([]byte(nil), chunk...)}
	r.mu.Lock()
	r.uploads = append(r.uploads, u)
	r.mu.Unlock()
	return offset + len(chunk), nil
}

func (r *recorder) Offset(string, string) (int, uint32, error) {
	r.mu.Lock()
	r.offsets++
	r.mu.Unlock()
	return 0, 0, errors.New("capture: unexpected OFFSET")
}

// newCapture runs a deployment with a recording uploader on every phone.
// With a tracer it runs traced: each layer in its span, and the
// simulator's per-layer metrics and the final logs' scan recorded in v.
func newCapture(s shape, seed uint64, tr *tracer, v values) (*capture, error) {
	rec := &recorder{index: map[string]int{}}
	attach := func(d *phone.Device, l *core.Logger) {
		rec.index[d.ID()] = len(rec.devs)
		rec.devs = append(rec.devs, d)
		collect.AttachUploaderWith(d, "capture", l.Config().LogPath, collect.UploaderConfig{Every: uploadEvery, Transport: rec})
	}
	var fl *phone.Fleet
	if tr != nil {
		var loggers []*core.Logger
		var err error
		if fl, loggers, err = traceFleet(tr, v, s, seed, attach); err != nil {
			return nil, err
		}
		logs := make([]devLog, len(loggers))
		for i, l := range loggers {
			logs[i] = devLog{id: fl.Devices[i].ID(), data: l.LogBytes()}
		}
		traceScan(tr, v, logs)
	} else {
		fl = buildFleet(s, seed, attach)
		if err := fl.Run(); err != nil {
			return nil, fmt.Errorf("capture: run fleet: %w", err)
		}
	}
	if rec.offsets > 0 {
		return nil, fmt.Errorf("capture: %d OFFSET calls, want none against a healthy server", rec.offsets)
	}
	c := &capture{uploads: rec.uploads, hours: fl.ObservedHours()}
	for _, d := range fl.Devices {
		c.ids = append(c.ids, d.ID())
	}
	// Stable: one device's uploads keep their order at equal times.
	sort.SliceStable(c.uploads, func(i, j int) bool {
		a, b := c.uploads[i], c.uploads[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.dev < b.dev
	})
	var err error
	if tr != nil {
		_, err = tr.span(c.buildReference)
	} else {
		err = c.buildReference()
	}
	return c, err
}

// buildReference checks the capture is per-device contiguous (no upload
// starts past the end of what the server holds) and replays it through an
// in-process Dataset.PutMerged, the server's merge, to get the bytes each
// device must have after each upload.
func (c *capture) buildReference() error {
	n := len(c.ids)
	c.refs, c.recs = make([][][]byte, n), make([][]int, n)
	streams := make([][]byte, n)
	ds := collect.NewDataset()
	for _, u := range c.uploads {
		s := streams[u.dev]
		if u.offset > len(s) {
			return fmt.Errorf("capture: %s uploads at %d past its stream end %d", c.ids[u.dev], u.offset, len(s))
		}
		s = append(s[:u.offset:u.offset], u.data...)
		streams[u.dev] = s
		c.inputs = append(c.inputs, devLog{id: c.ids[u.dev], data: s})
		ds.PutMerged(c.ids[u.dev], s)
		b, _ := ds.Get(c.ids[u.dev])
		records := 0
		// The callback never fails, so neither does the scan.
		_ = core.ScanRecords(b, func(core.Record) error { records++; return nil })
		c.refs[u.dev] = append(c.refs[u.dev], b)
		c.recs[u.dev] = append(c.recs[u.dev], records)
	}
	return nil
}

// size returns the captured payload bytes.
func (c *capture) size() int {
	n := 0
	for _, u := range c.uploads {
		n += len(u.data)
	}
	return n
}

// copyRecords is the record count of one complete copy of the deployment.
func (c *capture) copyRecords() int {
	n := 0
	for _, r := range c.recs {
		if len(r) > 0 {
			n += r[len(r)-1]
		}
	}
	return n
}

// newRound reports whether upload i is the first of a new upload round: it
// falls in a later period of the uploaders' weekly cadence than the upload
// before it.
func (c *capture) newRound(i int) bool {
	round := func(u upload) sim.Time { return u.at / sim.Time(uploadEvery) }
	return i > 0 && round(c.uploads[i]) != round(c.uploads[i-1])
}

// replicaID names device d in replay copy k: each copy of the capture is
// replayed under its own device IDs, so copies never merge.
func (c *capture) replicaID(d, k int) string { return fmt.Sprintf("%s.r%d", c.ids[d], k) }
