# Tier-1 verification gate and convenience targets.

.PHONY: check build test fmt vet gate-demo

check:
	./scripts/check.sh

# gate-demo exercises the incremental analysis layer end-to-end: edits
# one function of a real kernel and asserts `epvf diff` recomputes only
# that section, then runs the `epvf gate` protect->re-verify loop cold
# and warm against one section cache and asserts the warm analyses are
# at least 5x faster.
gate-demo:
	./scripts/gate_demo.sh

build:
	go build ./...

test:
	go test ./...

fmt:
	gofmt -w .

vet:
	go vet ./...
