package collect

import (
	"errors"
	"hash/crc32"
	"syscall"
	"time"

	"symfail/internal/phone"
	"symfail/internal/sim"
)

// UploaderConfig calibrates the hardened uploader.
type UploaderConfig struct {
	// Every is the periodic upload interval in simulated time.
	Every time.Duration
	// RetryBase enables retry-with-backoff when non-zero: after a failed
	// attempt the uploader retries after RetryBase, doubling per
	// consecutive failure up to RetryMax, with multiplicative jitter when
	// Rng is set. Retries are scheduled on the sim clock, between the
	// periodic ticks.
	RetryBase time.Duration
	// RetryMax caps the backoff delay (defaults to Every when zero).
	RetryMax time.Duration
	// Rng drives the retry jitter (a Split() child of the device stream).
	// Nil means deterministic backoff without jitter.
	Rng *sim.Rand
	// Transport carries the bytes; nil means the real NetTransport.
	Transport Transport
}

// Uploader periodically pushes a device's Log File to the collection
// server while the phone is on — the paper's automated software
// infrastructure for transferring Log Files from the phones [1]. Uploads
// are resumable: the uploader tracks the server-acknowledged offset and
// ships only the tail past it, so a long study log is not re-sent on every
// tick and a failed transfer only costs the tail. The server's idempotent
// merge makes re-sends after a lost acknowledgement harmless.
type Uploader struct {
	dev  *phone.Device
	addr string
	path string
	cfg  UploaderConfig

	// acked is how much of the local file the server has acknowledged;
	// ackedCRC is the CRC-32C of that prefix, which detects rotation or a
	// master reset having rewritten history underneath the offset.
	acked    int
	ackedCRC uint32
	// resync asks the next attempt to query the server's offset first —
	// set after any failure, because a lost acknowledgement means the
	// server may be further along than we think.
	resync bool

	attempts     int
	successes    int
	failStreak   int
	retryPending bool
	bytesSent    int64
	lastErr      error

	// Observability counters (see the accessors for semantics).
	retries       int
	resumes       int
	reconnects    int
	retransmitted int64
	// sentHigh is the high-water end offset of every chunk that reached
	// the wire for the current file identity; bytes offered again below it
	// count as retransmission. Reset when rotation or a master reset gives
	// the file a new identity.
	sentHigh int

	// Interned callbacks: the periodic tick and the retry re-arm on every
	// fire, and a per-arm closure would allocate at fleet scale. Built
	// once in AttachUploaderWith.
	tickFn  func()
	retryFn func()
}

// AttachUploader installs a periodic uploader on a device. path is the
// on-flash Log File to ship (the logger's LogPath); every is the upload
// period in simulated time. The schedule is anchored to the collection
// infrastructure, not to the phone's boot cycle: a tick that finds the
// phone off (or frozen) is skipped and the next one fires a period later,
// so reboots never silence the uploads. The TCP transfer itself happens in
// host time inside the simulation event, which is how a transfer that is
// near-instant relative to phone timescales should behave.
func AttachUploader(d *phone.Device, addr, path string, every time.Duration) *Uploader {
	return AttachUploaderWith(d, addr, path, UploaderConfig{Every: every})
}

// AttachUploaderWith installs an uploader with full calibration.
func AttachUploaderWith(d *phone.Device, addr, path string, cfg UploaderConfig) *Uploader {
	if cfg.Transport == nil {
		cfg.Transport = NetTransport{}
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = cfg.Every
	}
	u := &Uploader{dev: d, addr: addr, path: path, cfg: cfg}
	u.tickFn = func() {
		if u.dev.State() == phone.StateOn {
			u.uploadNow()
		}
		u.loop()
	}
	u.retryFn = func() {
		u.retryPending = false
		if u.dev.State() == phone.StateOn {
			u.retries++
			u.uploadNow()
		}
	}
	u.loop()
	return u
}

// Attempts returns how many uploads were tried (retries included).
func (u *Uploader) Attempts() int { return u.attempts }

// Successes returns how many uploads the server acknowledged.
func (u *Uploader) Successes() int { return u.successes }

// BytesSent returns the cumulative payload bytes shipped. With resumable
// uploads this tracks the log's growth, not successes × file size.
func (u *Uploader) BytesSent() int64 { return u.bytesSent }

// LastErr returns the most recent upload error. Any successful server
// round-trip — OFFSET included — clears it to nil, so a non-nil value
// means "currently failing", not "failed once ever".
func (u *Uploader) LastErr() error { return u.lastErr }

// Retries counts upload attempts fired by the backoff timer (between
// periodic ticks), as opposed to the ticks themselves.
func (u *Uploader) Retries() int { return u.retries }

// Resumes counts successful OFFSET renegotiations: after a failure the
// uploader asked the server where it stands and resumed from the server's
// authoritative offset instead of re-sending blind.
func (u *Uploader) Resumes() int { return u.resumes }

// Reconnects counts uploads that succeeded immediately after one or more
// failures — the connection came back.
func (u *Uploader) Reconnects() int { return u.reconnects }

// BytesRetransmitted counts payload bytes put on the wire again below the
// high-water mark of what had already been sent: the cost of lost
// acknowledgements and of offset regression, where a crashed server lost
// an un-synced stream tail and the client rewound to the server's
// authoritative offset. Refused connections carry no bytes and do not
// count; an attempt that reaches the wire counts its declared tail even if
// the transfer then dies. Rotation and master resets reset the high-water
// mark — a fresh file re-sent from zero is new data, not retransmission.
func (u *Uploader) BytesRetransmitted() int64 { return u.retransmitted }

func (u *Uploader) loop() {
	u.dev.Engine().After(u.cfg.Every, u.tickFn)
}

// scheduleRetry arms a one-shot retry between periodic ticks, with
// exponential backoff and jitter. Disabled retries (RetryBase zero) and
// backoffs that would land past the next periodic tick are skipped — the
// tick itself is the retry of last resort.
func (u *Uploader) scheduleRetry() {
	if u.cfg.RetryBase <= 0 || u.retryPending {
		return
	}
	delay := u.cfg.RetryBase << (u.failStreak - 1)
	if u.failStreak > 20 || delay > u.cfg.RetryMax || delay <= 0 {
		delay = u.cfg.RetryMax
	}
	if u.cfg.Rng != nil {
		// Jitter in [0.5, 1.5): phones that failed together (a server
		// outage) must not retry in lockstep.
		delay = time.Duration(float64(delay) * (0.5 + u.cfg.Rng.Float64()))
	}
	if delay >= u.cfg.Every {
		return
	}
	u.retryPending = true
	u.dev.Engine().After(delay, u.retryFn)
}

func (u *Uploader) fail(err error) {
	u.lastErr = err
	u.failStreak++
	u.resync = true
	u.scheduleRetry()
}

func (u *Uploader) uploadNow() {
	data, ok := u.dev.FS().Read(u.path)
	if !ok {
		return // nothing logged yet
	}
	u.attempts++
	// The acknowledged prefix must still be the file's prefix; rotation or
	// a master reset rewrites history and forces a full re-send (the
	// server's merge dedups whatever it already had). The file has a new
	// identity, so the retransmission high-water mark resets with it.
	if u.acked > len(data) || crc32.Checksum(data[:u.acked], castagnoli) != u.ackedCRC {
		u.acked, u.ackedCRC = 0, 0
		u.sentHigh = 0
	}
	if u.resync {
		n, sum, err := u.cfg.Transport.Offset(u.addr, u.dev.ID())
		if err != nil {
			u.fail(err)
			return
		}
		// The server answered: whatever the last failure was, the link is
		// back. A non-nil LastErr must mean "currently failing", so every
		// successful verb clears it.
		u.lastErr = nil
		u.resumes++
		if n <= len(data) && crc32.Checksum(data[:n], castagnoli) == sum {
			// The server is exactly n bytes into our file; resume from
			// there. n above our record means a lost ACK left the server
			// ahead of us; n below it is offset regression — the server
			// lost un-synced stream tail in a crash and its word is the
			// authoritative one, so rewind and re-send from n.
			u.acked, u.ackedCRC = n, sum
		} else {
			// The server's stream is not a prefix of our file (master
			// reset, rotation, or the server lost the stream wholesale):
			// start the stream over from 0.
			u.acked, u.ackedCRC = 0, 0
		}
		u.resync = false
	}
	tail := data[u.acked:]
	start, end := u.acked, u.acked+len(tail)
	_, err := u.cfg.Transport.UploadChunk(u.addr, u.dev.ID(), start, tail)
	if err == nil || !isRefused(err) {
		// The chunk reached the wire (even if the transfer then died);
		// anything below the sent high-water mark is retransmission.
		if start < u.sentHigh && len(tail) > 0 {
			over := u.sentHigh - start
			if over > len(tail) {
				over = len(tail)
			}
			u.retransmitted += int64(over)
		}
		if end > u.sentHigh {
			u.sentHigh = end
		}
	}
	if err != nil {
		// Flaky networks must not crash the phone; back off and retry.
		u.fail(err)
		return
	}
	u.bytesSent += int64(len(tail))
	u.acked = len(data)
	u.ackedCRC = crc32.Checksum(data, castagnoli)
	u.successes++
	if u.failStreak > 0 {
		u.reconnects++
	}
	u.failStreak = 0
	u.lastErr = nil
}

// isRefused reports whether an upload error means the connection never
// happened — no bytes flowed, so nothing was (re)transmitted.
func isRefused(err error) bool {
	return errors.Is(err, ErrRefused) || errors.Is(err, syscall.ECONNREFUSED)
}
