package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Distributed recovery restores checkpoints written by a process that
// may have died mid-write: a snapshot that does not decode, or whose
// payload was silently damaged, must surface as a structured error
// wrapping ErrCorrupt — never a panic, never a silently wrong restore.

func writeSample(t *testing.T) (string, []byte) {
	t.Helper()
	_, st := sample(t)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := WriteFile(path, st); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestReadTruncatedIsErrCorrupt(t *testing.T) {
	path, raw := writeSample(t)
	for _, n := range []int{0, 1, 10, len(raw) / 2, len(raw) - 2} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		if err == nil {
			t.Fatalf("truncation to %d bytes read back without error", n)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: error does not wrap ErrCorrupt: %v", n, err)
		}
	}
}

func TestReadBitFlippedPayloadIsErrCorrupt(t *testing.T) {
	path, raw := writeSample(t)
	// A single-field mutation that keeps the JSON valid: the boundary
	// time. Only the checksum can catch it.
	flipped := bytes.Replace(raw, []byte(`"time":100`), []byte(`"time":101`), 1)
	if bytes.Equal(flipped, raw) {
		t.Fatal("fixture did not contain the expected time field")
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit-flipped payload: error does not wrap ErrCorrupt: %v", err)
	}

	// A flip inside the recorded checksum itself must also be caught.
	re := regexp.MustCompile(`"sum":"fnv64a:([0-9a-f])`)
	m := re.FindSubmatchIndex(raw)
	if m == nil {
		t.Fatal("fixture has no sum field")
	}
	bad := append([]byte(nil), raw...)
	if bad[m[2]] == 'f' {
		bad[m[2]] = '0'
	} else {
		bad[m[2]] = 'f'
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("damaged checksum: error does not wrap ErrCorrupt: %v", err)
	}
}

func TestReadSnapshotWithoutSumIsErrCorrupt(t *testing.T) {
	path, raw := writeSample(t)
	// Every writer seals, so a snapshot without a sum field is damaged. A
	// stripped sum plus a flipped value must not restore silently.
	unsealed := regexp.MustCompile(`,"sum":"fnv64a:[0-9a-f]{16}"`).ReplaceAll(raw, nil)
	if bytes.Equal(unsealed, raw) {
		t.Fatal("fixture has no sum field to strip")
	}
	for name, body := range map[string][]byte{
		"stripped":         unsealed,
		"stripped-flipped": bytes.Replace(unsealed, []byte(`"time":100`), []byte(`"time":101`), 1),
	} {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: snapshot without sum: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestReadDeltaWithoutSumIsErrCorrupt(t *testing.T) {
	s0 := fakeState(100, []logic.Value{0, 1}, nil)
	d, err := DeltaFrom(s0, step(s0, 200, []circuit.GateID{0}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	unsealed := regexp.MustCompile(`,"sum":"fnv64a:[0-9a-f]{16}"`).ReplaceAll(buf.Bytes(), nil)
	if bytes.Equal(unsealed, buf.Bytes()) {
		t.Fatal("fixture has no sum field to strip")
	}
	if _, err := ReadDelta(bytes.NewReader(unsealed)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("delta without sum: err = %v, want ErrCorrupt", err)
	}
}

func TestSealVerify(t *testing.T) {
	_, st := sample(t)
	st.Seal()
	if err := st.Verify(); err != nil {
		t.Fatalf("freshly sealed snapshot fails Verify: %v", err)
	}
	st.Events[0].Time++
	if err := st.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mutated snapshot passes Verify: %v", err)
	}
}
