package sim

import (
	"testing"
	"time"

	"sidewinder/internal/apps"
	"sidewinder/internal/tracegen"
)

// BenchmarkReplay runs two hub-driven strategies over one seeded 2-minute
// audio trace, pinning the replay path's allocations (make bench-check):
// Sidewinder with the music condition, which feeds the interpreter block
// by block, and predefined activity, which fills the fired bitmap from its
// significance detector. Both replay the bitmap through wakeWindow.replay.
func BenchmarkReplay(b *testing.B) {
	tr, err := tracegen.Audio(tracegen.NewAudioConfig(1, 2*time.Minute, tracegen.OfficeAudio))
	if err != nil {
		b.Fatal(err)
	}
	app := apps.MusicJournal()
	for _, s := range []Strategy{
		Sidewinder{},
		PredefinedActivity{Kind: SignificantSound, Threshold: 0.005},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := s.Run(tr, app)
				if err != nil {
					b.Fatal(err)
				}
				if res.Power.WakeUps == 0 {
					b.Fatal("no wake-ups: the benchmark replays nothing")
				}
			}
		})
	}
}
