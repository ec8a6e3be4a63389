package symfail

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"symfail/internal/phone"
)

// flashImageHash hashes every file on every device's flash at the end of a
// study: device ID, then each path in sorted order with its length and
// bytes. It witnesses the whole on-flash state the logger leaves behind
// (Log File, beats, running-apps, activity and power files), not just the
// log the analysis reads.
func flashImageHash(t *testing.T, fs *FieldStudy) string {
	t.Helper()
	h := sha256.New()
	var n [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, d := range fs.Fleet.Devices {
		put([]byte(d.ID()))
		for _, path := range d.FS().List() {
			data, _ := d.FS().Read(path)
			put([]byte(path))
			put(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFlashImagePinned pins the bytes on every phone's flash at the end of
// two seeded studies, one on a perfect flash and one under torn writes, bit
// rot and a quota. Both goldens pin what the analysis reads; this pins what
// the file server stores, so a change to how file data travels (IPC
// bodies, replies, capacity reuse on rewrite) must leave every stored byte
// where it was.
func TestFlashImagePinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  FieldStudyConfig
		want string
	}{
		{
			name: "perfect flash",
			cfg: FieldStudyConfig{
				Seed:       424242,
				Phones:     6,
				Duration:   3 * phone.StudyMonth,
				JoinWindow: phone.StudyMonth / 2,
				Workers:    1,
			},
			want: "08f939550281d5ce93b5f96e4c8f2f291365dc6c6b299ccea17e241e3da10bd8",
		},
		{
			name: "torn writes, bit rot and quota",
			cfg: FieldStudyConfig{
				Seed:       979797,
				Phones:     4,
				Duration:   2 * phone.StudyMonth,
				JoinWindow: phone.StudyMonth / 4,
				Workers:    1,
				Adversity: AdversityConfig{
					Flash: phone.FlashFaults{
						TornWriteProb:  0.6,
						BitRotPerWrite: 0.004,
						QuotaBytes:     8 << 10,
					},
				},
			},
			want: "98e6efcf2bbc5c8766373a941e4e29525e021cfb637359debce0e1e87b2f33fe",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := RunFieldStudy(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var torn, flips, rejects uint64
			for _, d := range fs.Fleet.Devices {
				torn += d.FS().TornWrites()
				flips += d.FS().BitFlips()
				rejects += d.FS().QuotaRejects()
			}
			if tc.cfg.Adversity.Flash.Enabled() && (torn == 0 || flips == 0 || rejects == 0) {
				t.Errorf("faults not exercised: %d torn writes, %d bit flips, %d quota rejects", torn, flips, rejects)
			}
			if got := flashImageHash(t, fs); got != tc.want {
				t.Errorf("flash image %s, want %s (torn %d, flips %d, rejects %d)", got, tc.want, torn, flips, rejects)
			}
		})
	}
}
