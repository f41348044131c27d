package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"repro/internal/experiments"
)

// defaultSeed is the benchmark's default workload seed; heldOutSeed is a
// second seed whose digests were recorded without tuning against it.
const defaultSeed, heldOutSeed = 1, 97

// expectedDigests are the sha256 digests of each workload's report bytes
// at the two recorded seeds, as printed by -print-digests. The
// suite-stream digests equal those of the retained suite at the same
// scale and inputs, which -print-digests checks; trace-roundtrip's census
// repetition checks its report against the direct one. The pinned fleet
// has one digest at every seed. At any other seed every repetition must
// reproduce the census repetition's digest.
var expectedDigests = map[string]map[uint64]string{
	"suite-stream": {
		defaultSeed: "ee65786a8aaacaf5d4434629220aa3c93e55d7710b882e858bbeb319b59dae01",
		heldOutSeed: "b8fb8b84204536de8838df59aa94b9d2b453a8437e0fabc993fbd3710c3fa895",
	},
	"fleet-128": {
		defaultSeed: "8e77e74c092dae7650c17620a71e357c9b02899baaf89c9cd3cbcbbc99fd1c84",
		heldOutSeed: "8e77e74c092dae7650c17620a71e357c9b02899baaf89c9cd3cbcbbc99fd1c84", // pinned fleet
	},
	"sweep-replay": {
		defaultSeed: "009016019174ad4e75a882ddf725b7f1be149ebc9abeb1253f7df00f32f3c55c",
		heldOutSeed: "173363e7ff2c43b608d2a119269a543e5c8aed1271084d69ac7369bb3c26cc19",
	},
	"trace-roundtrip": {
		defaultSeed: "37c1bc60e7dbb69d7687fc06464df81cdb2a6c5bb7bb79e28f7db37f250a9ecc",
		heldOutSeed: "478ec5cd88951ca2a65bb23676e26f47846ccb334b263a428396bfaebfb335c1",
	},
}

// printDigests runs every workload at both recorded seeds and prints
// their digests, checking suite-stream against the retained suite.
func printDigests(dir string) error {
	for _, w := range workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			res, err := run(config{workload: w, seed: seed, dir: dir})
			if err != nil {
				return err
			}
			if len(res.problems) > 0 {
				return fmt.Errorf("%s seed %d: %v", w.name, seed, res.problems)
			}
			if w.name == "suite-stream" {
				e := &env{seed: seed, parallelism: runtime.NumCPU()}
				if err := checkRetained(e, res.context.Digest); err != nil {
					return err
				}
			}
			fmt.Printf("%s seed %d: digest %s rows %d\n", w.name, seed, res.context.Digest, res.context.Rows)
		}
	}
	return nil
}

// checkRetained checks that the retained suite at suite-stream's scale
// and inputs renders a report with the given digest.
func checkRetained(e *env, digest string) error {
	sc, err := replaying(e.suiteStreamScale())
	if err != nil {
		return err
	}
	h := sha256.New()
	if err := experiments.RunSuite(sc).WriteReport(h); err != nil {
		return err
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != digest {
		return fmt.Errorf("suite-stream seed %d: streamed digest %s, retained %s", e.seed, digest, got)
	}
	return nil
}
