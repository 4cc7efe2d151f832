# Tier-1 verification gate and convenience targets.

.PHONY: check build test fmt vet

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

fmt:
	gofmt -w .

vet:
	go vet ./...
