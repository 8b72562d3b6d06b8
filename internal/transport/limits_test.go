package transport

import (
	"context"
	"testing"

	"repro/internal/wire"
)

// TestClientPoolReuseUnderChurn: checkout/checkin keeps working across
// bursts larger than the idle cap.
func TestClientPoolReuseUnderChurn(t *testing.T) {
	addr, _ := startServer(t)
	client := NewClient([]string{addr})
	defer client.Close()
	ctx := context.Background()
	for burst := 0; burst < 3; burst++ {
		done := make(chan error, 10)
		for g := 0; g < 10; g++ {
			go func() {
				_, err := client.Call(ctx, 0, wire.Ping{})
				done <- err
			}()
		}
		for g := 0; g < 10; g++ {
			if err := <-done; err != nil {
				t.Fatalf("burst %d: %v", burst, err)
			}
		}
	}
}

// TestClientCloseThenCall: a closed client can still place calls (it
// dials fresh connections); Close only drains the idle pool.
func TestClientCloseThenCall(t *testing.T) {
	addr, _ := startServer(t)
	client := NewClient([]string{addr})
	if _, err := client.Call(context.Background(), 0, wire.Ping{}); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(context.Background(), 0, wire.Ping{}); err != nil {
		t.Fatalf("call after Close: %v", err)
	}
}
