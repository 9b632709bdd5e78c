// Multiapp: the paper's §7 future-work directions, implemented. Three
// applications push wake-up conditions to one hub:
//
//   - the hub merges common pipeline prefixes, so the two audio apps share
//     their windowing stage ("the sensor manager can attempt to improve
//     performance by combining the pipelines that use common algorithms"),
//   - the set is re-placed on the cheapest feasible device as conditions
//     come and go, and
//   - one application reports false positives, and the phone-side policy
//     engine tightens its condition's threshold and pushes the tightened
//     program to the hub in place ("self-learning mechanisms may be able
//     to tune the parameters used on the wake-up conditions").
//
// Run with:
//
//	go run ./examples/multiapp
package main

import (
	"fmt"
	"log"

	"sidewinder"
)

func main() {
	bed, err := sidewinder.NewTestbed(sidewinder.TestbedConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Two audio conditions with an identical windowing prefix.
	loudness := sidewinder.NewPipeline("loudness")
	loudness.AddBranch(sidewinder.NewBranch(sidewinder.Mic).
		Add(sidewinder.Window(1024, 0, "rectangular")).
		Add(sidewinder.Stat("variance")).
		Add(sidewinder.MinThreshold(0.02)))

	tone := sidewinder.NewPipeline("tone")
	tone.AddBranch(sidewinder.NewBranch(sidewinder.Mic).
		Add(sidewinder.Window(1024, 0, "rectangular")).
		Add(sidewinder.ZCRVariance(8)).
		Add(sidewinder.BandThreshold(0, 0.002)))

	// One motion condition on a different sensor.
	shake := sidewinder.NewPipeline("shake")
	shake.AddBranch(sidewinder.NewBranch(sidewinder.AccelX).
		Add(sidewinder.MovingAverage(4)).
		Add(sidewinder.MinThreshold(8)))

	var loudFires, toneFires, shakeFires int
	mustPush := func(p *sidewinder.Pipeline, counter *int) uint16 {
		id, device, err := bed.Push(p, sidewinder.ListenerFunc(func(sidewinder.Event) { *counter++ }))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  pushed %-9s -> condition %d on the %s\n", p.Name(), id, device)
		return id
	}

	fmt.Println("loading three applications onto one hub:")
	mustPush(loudness, &loudFires)
	mustPush(tone, &toneFires)
	shakeID := mustPush(shake, &shakeFires)
	fmt.Printf("hub deduplicated %d algorithm instance(s): the shared 1024-sample window runs once\n\n",
		bed.Hub.SharedNodes())

	// Drive the microphone with a loud tone: both audio conditions fire
	// off the same shared window.
	fmt.Println("feeding a loud steady tone to the microphone...")
	for i := 0; i < 1024; i++ {
		v := 0.3
		if i%8 >= 4 { // 250 Hz square-ish wave at 4 kHz intervals
			v = -0.3
		}
		if err := bed.Feed(sidewinder.Mic, v); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("  loudness fired %dx, tone fired %dx (one window computation served both)\n\n",
		loudFires, toneFires)

	// The shake app turns out to be too sensitive: its developer set the
	// threshold at 8, but door slams reach 9. The app reports false
	// positives; the phone tightens the condition and updates the hub.
	fmt.Println("door slams (x ~ 9 m/s²) wake the shake app; it reports false positives...")
	slam := func() int {
		before := shakeFires
		for i := 0; i < 8; i++ {
			if err := bed.Feed(sidewinder.AccelX, 9); err != nil {
				log.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ { // settle
			bed.Feed(sidewinder.AccelX, 0)
		}
		return shakeFires - before
	}
	fmt.Printf("  before tuning: a door slam wakes the phone %d time(s)\n", slam())
	for i := 0; i < 8; i++ {
		if err := bed.Feedback(shakeID, true); err != nil {
			log.Fatal(err)
		}
	}
	knobs, _ := bed.Manager.AdaptiveKnobs(shakeID)
	fmt.Printf("  the phone tightened the threshold by %.0f%% and pushed it to the hub\n", (knobs.ThresholdFactor-1)*100)
	fmt.Printf("  after tuning:  a door slam wakes the phone %d time(s)\n", slam())

	// Real shakes still get through.
	before := shakeFires
	for i := 0; i < 8; i++ {
		bed.Feed(sidewinder.AccelX, 14)
	}
	fmt.Printf("  a real shake (14 m/s²) still fires: %d wake(s)\n", shakeFires-before)
}
