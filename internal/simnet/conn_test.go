package simnet

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestConnectionBytesPerRoundTrip bounds what one short connection
// costs the heap: Dial, Accept, a request and a reply, and Close on
// both ends. A connection allocates in proportion to the messages in
// flight, so the whole cycle stays far below the size of one
// preallocated backlog of messages (backlog × 48 B per direction).
func TestConnectionBytesPerRoundTrip(t *testing.T) {
	n := New(0)
	l, err := n.Listen(81)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	req, resp := []byte("GET /index.html HTTP/1.0\r\n\r\n"), []byte("HTTP/1.0 200 OK\r\n\r\nhello")
	cycle := func() {
		client, err := n.Dial(81)
		if err != nil {
			t.Fatal(err)
		}
		server, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Send(req); err != nil {
			t.Fatal(err)
		}
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		PutBuffer(got)
		if err := server.Send(resp); err != nil {
			t.Fatal(err)
		}
		got, err = client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		PutBuffer(got)
		_ = server.Close()
		_ = client.Close()
	}
	for i := 0; i < 100; i++ {
		cycle() // warm the buffer pool
	}
	const cycles = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("%d bytes allocated per Dial→Send→Recv→Close cycle", perCycle)
	if limit := uint64(2048); perCycle > limit {
		t.Errorf("connection cycle allocates %d bytes, want <= %d", perCycle, limit)
	}
}

// TestSendBlocksAtBacklog keeps the per-connection bound: backlog
// messages may be in flight unreceived, the next Send waits for the
// receiver to take one, and a sender parked on a full peer fails once
// the peer closes.
func TestSendBlocksAtBacklog(t *testing.T) {
	n := New(0)
	a, b := newPair(n)
	for i := 0; i < backlog; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- a.Send([]byte{0xFF}) }()
	select {
	case err := <-sent:
		t.Fatalf("send beyond the backlog returned %v without waiting", err)
	case <-time.After(20 * time.Millisecond):
	}
	if got, err := b.Recv(); err != nil || got[0] != 0 {
		t.Fatalf("first recv = %v, %v", got, err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("parked send: %v", err)
	}
	for i := 1; i <= backlog; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := byte(i); i == backlog && got[0] != 0xFF || i < backlog && got[0] != want {
			t.Fatalf("recv %d = %d, out of order", i, got[0])
		}
	}

	// Fill again, park a sender, then close the receiving end.
	for i := 0; i < backlog; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	go func() { sent <- a.Send([]byte{0xFF}) }()
	time.Sleep(10 * time.Millisecond)
	_ = b.Close()
	if err := <-sent; !errors.Is(err, ErrClosed) {
		t.Errorf("send parked on a closed peer = %v, want ErrClosed", err)
	}
}

// TestRecvWakesEveryParkedReceiver parks several receivers on one
// endpoint and delivers one message each: none may sleep through a
// message that arrived while another receiver held the wake-up.
func TestRecvWakesEveryParkedReceiver(t *testing.T) {
	n := New(0)
	a, b := newPair(n)
	const receivers = 8
	got := make(chan byte, receivers)
	for i := 0; i < receivers; i++ {
		go func() {
			msg, err := b.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			got <- msg[0]
		}()
	}
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < receivers; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for i := 0; i < receivers; i++ {
		select {
		case v := <-got:
			seen |= 1 << v
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d receivers woke", i, receivers)
		}
	}
	if seen != 1<<receivers-1 {
		t.Errorf("messages received = %b, want all %d", seen, receivers)
	}
}
