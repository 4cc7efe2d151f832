// Package content is the repository's single content-address
// implementation: a sha256 digest over a version-tagged domain prefix,
// truncated to a fixed-width hex string.
//
// Every content hash in the system — campaign plan IDs
// ("epvf-campaign-v1"), shard delivery hashes ("epvf-shard-v1"),
// attribution-ledger snapshots ("epvf-attr-v1") and the analysis-service
// cache keys ("epvf-analysis-v1", …) — is produced through this package,
// so the hashing discipline (domain separation, truncation width,
// upgrade-by-retag) lives in exactly one place. The emitted bytes are
// identical to the historical per-package implementations; the pinned
// regression tests in internal/campaign and internal/attr enforce that.
package content

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/ir"
)

// HashLen is the hex-character width every content hash is truncated to.
// 64 bits of digest: far beyond collision concerns for the corpus sizes
// involved (billions of entries would be needed for a birthday collision)
// while keeping hashes readable in logs, filenames and URLs.
const HashLen = 16

// Hasher accumulates a domain-tagged content hash. The zero value is not
// usable; construct with NewHasher.
type Hasher struct {
	h hash.Hash
}

// NewHasher starts a digest under the given domain tag. The tag (plus a
// newline separator) is hashed first, so two hashers with different tags
// can never collide on identical payloads; by convention tags are
// versioned ("epvf-shard-v1") and changing an encoding means minting a
// new tag, never silently reusing the old one. The tag may carry
// key-identifying parameters ("epvf-shard-v1 plan=%s shard=%d").
func NewHasher(tag string) *Hasher {
	h := &Hasher{h: sha256.New()}
	fmt.Fprintf(h.h, "%s\n", tag)
	return h
}

// Write feeds raw bytes into the digest. It never fails (the error return
// satisfies io.Writer).
func (h *Hasher) Write(p []byte) (int, error) {
	return h.h.Write(p)
}

// Printf feeds a formatted line into the digest. Callers are expected to
// terminate records with "\n" themselves where field separation matters,
// exactly as with fmt.Fprintf on a raw hash.
func (h *Hasher) Printf(format string, args ...any) {
	fmt.Fprintf(h.h, format, args...)
}

// Sum returns the truncated hex digest. The hasher must not be written to
// afterwards.
func (h *Hasher) Sum() string {
	return hex.EncodeToString(h.h.Sum(nil))[:HashLen]
}

// Hash is the one-shot convenience: the digest of a single payload under
// the given domain tag.
func Hash(tag string, payload []byte) string {
	h := NewHasher(tag)
	h.Write(payload)
	return h.Sum()
}

// funcTag is the domain tag of per-function IR hashes. The payload is the
// canonical reprint of a single function (ir.PrintFunc), so the hash is
// invariant under whitespace or module-level reordering of *other*
// functions, but changes whenever any instruction, type, block name or
// register name of this function changes.
const funcTag = "epvf-func-v1"

// FuncHash returns the content address of a single function: the hash of
// its canonical IR reprint. `epvf diff` compares it to tell which
// functions an edit changed, and it is the static half of every
// incremental section key (internal/inc); the pinned regression test keeps
// the emitted bytes from silently drifting and splitting section caches.
func FuncHash(fn *ir.Function) string {
	return Hash(funcTag, []byte(ir.PrintFunc(fn)))
}
