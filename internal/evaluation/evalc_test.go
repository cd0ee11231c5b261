package evaluation

import (
	"testing"
	"time"

	"repro/internal/kernels"
)

func TestEvalCInlineAndOffloaded(t *testing.T) {
	for _, offload := range []bool{false, true} {
		res, err := RunEvalC(EvalCConfig{
			Kernel: "crypt", Offload: offload,
			Clients: 4, MessagesPerClient: 5,
		})
		if err != nil {
			t.Fatalf("offload=%v: %v", offload, err)
		}
		want := int64(4 * 5)
		if res.Messages != want {
			t.Fatalf("offload=%v: messages = %d, want %d", offload, res.Messages, want)
		}
		if res.RoundTrip.Count != int(want) {
			t.Fatalf("offload=%v: round trips = %d", offload, res.RoundTrip.Count)
		}
		if res.RoundTrip.Mean <= 0 || res.DispatchBusy.Count == 0 {
			t.Fatalf("offload=%v: empty metrics %+v", offload, res)
		}
	}
}

func TestEvalCShape_OffloadFreesDispatchLoop(t *testing.T) {
	// The universality claim: on the network framework too, offloading
	// collapses dispatch-goroutine occupancy per message.
	size := kernels.Calibrate(func(s int) kernels.Kernel { return kernels.NewCrypt(s) },
		64*1024, 5*time.Millisecond)
	inline, err := RunEvalC(EvalCConfig{
		Kernel: "crypt", KernelSize: size,
		Clients: 4, MessagesPerClient: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	offl, err := RunEvalC(EvalCConfig{
		Kernel: "crypt", KernelSize: size, Offload: true, Workers: 4,
		Clients: 4, MessagesPerClient: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inline.DispatchBusy.Mean < 2*time.Millisecond {
		t.Fatalf("inline dispatch busy %v suspiciously low", inline.DispatchBusy.Mean)
	}
	if offl.DispatchBusy.Mean*4 > inline.DispatchBusy.Mean {
		t.Fatalf("offloaded dispatch busy %v not well below inline %v",
			offl.DispatchBusy.Mean, inline.DispatchBusy.Mean)
	}
	// With 4 concurrent clients and 4 workers, offloading should not be
	// slower end-to-end either.
	if offl.RoundTrip.Mean > inline.RoundTrip.Mean*2 {
		t.Fatalf("offloaded round trip %v far worse than inline %v",
			offl.RoundTrip.Mean, inline.RoundTrip.Mean)
	}
}

func TestEvalCValidation(t *testing.T) {
	if _, err := RunEvalC(EvalCConfig{Kernel: "nope"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}
