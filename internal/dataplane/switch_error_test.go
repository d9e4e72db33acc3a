package dataplane

import (
	"errors"
	"strings"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/detect"
)

// These tests cover the pipeline's error paths, which the scenario tests
// never hit: malformed telemetry, inconsistent TTL-derived hop counts,
// and FIB installation on nonexistent ports.

func testSwitch(t *testing.T, cfg core.Config) *Switch {
	t.Helper()
	u, err := core.New(cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	pl, err := newPipeline(u, 1)
	if err != nil {
		t.Fatalf("newPipeline: %v", err)
	}
	return newSwitch(detect.SwitchID(0x11), 0, []int{1, 2}, pl)
}

// TestProcessTruncatedTelemetry pins that a short Unroller header is
// rejected with the package-prefixed, sentinel-wrapped error chain.
func TestProcessTruncatedTelemetry(t *testing.T) {
	sw := testSwitch(t, core.DefaultConfig())
	p := &Packet{TTL: 10, Dst: detect.SwitchID(0x99), Telemetry: []byte{0x01}}
	_, err := sw.Process(p)
	if err == nil {
		t.Fatal("Process accepted a truncated header")
	}
	if !errors.Is(err, core.ErrHeaderTooShort) {
		t.Fatalf("error chain lost the sentinel: %v", err)
	}
	if !strings.HasPrefix(err.Error(), "dataplane: ") {
		t.Fatalf("error %q lacks the dataplane prefix", err)
	}
}

// TestDecodeInconsistentTTL pins the TTL-derived hop counting guard:
// after Process's per-hop decrement a legitimate packet can never still
// carry InitialTTL, so decodeTelemetry must refuse to derive a hop count
// from it. (TTL is a uint8, so Process itself cannot construct this
// state; the guard is the defence against a corrupted frame.)
func TestDecodeInconsistentTTL(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.TTLHopCount = true
	sw := testSwitch(t, cfg)
	tel, err := sw.unroller.NewPacketState().AppendHeader(nil)
	if err != nil {
		t.Fatalf("AppendHeader: %v", err)
	}
	st := sw.unroller.NewPacketState()
	p := &Packet{TTL: InitialTTL, Dst: detect.SwitchID(0x99), Telemetry: tel}
	if err := sw.decodeTelemetry(st, p); err == nil {
		t.Fatal("decodeTelemetry accepted a post-decrement TTL of InitialTTL")
	} else if !strings.Contains(err.Error(), "TTL") {
		t.Fatalf("error %q does not name the TTL inconsistency", err)
	}

	// A plausible TTL decodes fine and derives the right hop count.
	p.TTL = InitialTTL - 3 // injected at 255, now entering hop 3
	if err := sw.decodeTelemetry(st, p); err != nil {
		t.Fatalf("decodeTelemetry: %v", err)
	}
	if st.Hops() != 2 {
		t.Fatalf("derived hop count = %d, want 2 (pre-Visit)", st.Hops())
	}
}

// TestSetRouteBadPort pins FIB installation errors for out-of-range
// ports.
func TestSetRouteBadPort(t *testing.T) {
	sw := testSwitch(t, core.DefaultConfig())
	for _, port := range []PortID{-1, 2, 99} {
		if err := sw.SetRoute(detect.SwitchID(0x22), port); err == nil {
			t.Errorf("SetRoute accepted nonexistent port %d", port)
		}
		if err := sw.SetBackup(detect.SwitchID(0x22), port); err == nil {
			t.Errorf("SetBackup accepted nonexistent port %d", port)
		}
	}
	if err := sw.SetRoute(detect.SwitchID(0x22), 1); err != nil {
		t.Errorf("SetRoute rejected valid port: %v", err)
	}
}
