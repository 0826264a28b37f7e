package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// digestOf hashes a pass's simulated outputs: the sim.Result of every micro
// cell, the executed count, window cycles and ctl.Stats of every kv cell, or
// every torture Outcome field, in canonical order.
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// referenceDigests are the committed digests for each workload's default
// seed (micro 42, kv 42, torture 1). A change that moves one must say why.
var referenceDigests = map[string]string{
	"micro":   "efc307241110afaec426af5ee79262c513ecd23eabb0b43244c23302d8c308a9",
	"kv":      "ba7312c06101e77dea83170a3583cc82cc034de26cbf131ac1309a13ea9a99b3",
	"torture": "5829edd80df8ee92324382341934f79e42d5d6e95dc249aa7f4373f47223864a",
}
