package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"
)

// ProfileKind is the cache kind pprof bundles are stored under (in
// internal/cache terms: <cache-dir>/epvf-cache-v1/obs-profile-v1/<key>).
const ProfileKind = "obs-profile-v1"

// ProfileDuration is the CPU profile length per capture.
const ProfileDuration = 2 * time.Second

// profileBucket buckets fire times so repeated flapping of one rule
// within five minutes overwrites one bundle instead of accreting.
const profileBucket = 5 * time.Minute

// ProfileSink stores a captured bundle; *cache.Store satisfies it.
type ProfileSink interface {
	Put(kind, hash string, data []byte) error
}

// ProfileBundle is the stored JSON document: the fire context plus the
// raw pprof payloads (base64 via encoding/json []byte rules).
type ProfileBundle struct {
	Rule        string    `json:"rule"`
	FiredAt     time.Time `json:"fired_at"`
	Value       float64   `json:"value"`
	CPUMillis   int64     `json:"cpu_profile_millis"`
	CPUProfile  []byte    `json:"cpu_profile,omitempty"`
	HeapProfile []byte    `json:"heap_profile,omitempty"`
	Error       string    `json:"error,omitempty"`
}

// ProfileKey derives the cache key for a firing: the sanitized rule
// name plus the fire-time bucket. Cache keys allow only [a-z0-9_-].
func ProfileKey(rule string, at time.Time) string {
	var b strings.Builder
	for _, r := range strings.ToLower(rule) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return fmt.Sprintf("%s-%d", b.String(), at.Unix()/int64(profileBucket/time.Second))
}

// cpuProfiling guards the process-wide CPU profiler: only one
// StartCPUProfile may be active at a time, so concurrent firings share
// one capture (the losers still store a heap-only bundle).
var cpuProfiling atomic.Bool

// captureAsync captures a CPU+heap bundle for a firing transition and
// stores it under tr.Profile, off the evaluation goroutine.
func (e *Engine) captureAsync(tr Transition) {
	go func() {
		bundle := ProfileBundle{Rule: tr.Rule, FiredAt: tr.At, Value: tr.Value}
		if cpuProfiling.CompareAndSwap(false, true) {
			var cpu bytes.Buffer
			if err := pprof.StartCPUProfile(&cpu); err != nil {
				bundle.Error = err.Error()
			} else {
				time.Sleep(ProfileDuration)
				pprof.StopCPUProfile()
				bundle.CPUProfile = cpu.Bytes()
				bundle.CPUMillis = ProfileDuration.Milliseconds()
			}
			cpuProfiling.Store(false)
		} else {
			bundle.Error = "cpu profiler busy (concurrent capture)"
		}
		var heap bytes.Buffer
		if p := pprof.Lookup("heap"); p != nil {
			if err := p.WriteTo(&heap, 0); err == nil {
				bundle.HeapProfile = heap.Bytes()
			}
		}
		data, err := json.Marshal(bundle)
		if err != nil {
			return
		}
		if err := e.cfg.Profile.Put(ProfileKind, tr.Profile, data); err == nil {
			e.mu.Lock()
			e.profiles++
			e.mu.Unlock()
		}
	}()
}
