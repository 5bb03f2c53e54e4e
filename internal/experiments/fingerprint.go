package experiments

import (
	"fmt"
	"hash/fnv"
	"reflect"
)

// fingerprintVersion heads the canonical encoding. Bump it only when the
// encoding itself changes: a new knob left at zero is omitted, so adding
// one keeps every existing fingerprint.
const fingerprintVersion = "teco-result/v1"

// Fingerprint is the identity of "experiment id under these options", the
// sweep service's cache and coalescing key: FNV-64a over a versioned
// name=value encoding of the Result knobs in Knobs order, with an alias
// resolved to its experiment. The seed is always spelled out, any other
// knob only when neither zero nor its Default (retry_budget=0 and =8 share
// a key). Scheduling knobs cannot change an output byte and never enter.
func (opt Options) Fingerprint(id string) uint64 {
	if e := lookup(id); e != nil {
		id = e.id
	}
	b := fmt.Appendf(make([]byte, 0, 128), "%s|%s", fingerprintVersion, id)
	for i := range Knobs {
		k := &Knobs[i]
		v := reflect.ValueOf(k.Field(&opt)).Elem()
		x, numeric := k.value(&opt)
		if k.Class != Result || k.Name != "seed" && (v.IsZero() || numeric && x == k.Default) {
			continue
		}
		b = fmt.Appendf(b, "|%s=%#v", k.Name, v)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
