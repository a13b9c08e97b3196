package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// digests.json records the final flagged document's digest per workload,
// scale, seed and --seconds, for the seeds the benchmark was proven on;
// a run whose key is recorded must reproduce it exactly.
//
//go:embed digests.json
var digestsJSON []byte

var digests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("epochbench: digests.json: " + err.Error())
	}
	return m
}()

func digestKey(workload, scale string, seed uint64, seconds int) string {
	return fmt.Sprintf("%s/%s/seed=%d/seconds=%d", workload, scale, seed, seconds)
}

func recordedDigest(workload, scale string, seed uint64, seconds int) (string, bool) {
	d, ok := digests[digestKey(workload, scale, seed, seconds)]
	return d, ok
}
