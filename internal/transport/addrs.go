package transport

import (
	"fmt"
	"net"
	"strings"
)

// Mesh address validation shared by every TCP-backed fabric. A
// duplicated slot in the address list used to surface late and
// confusingly — the accept loop would see a second handshake for an
// already-attached peer index, or a party would dial itself — so the
// constructors now reject the configuration up front with a typed
// error naming the colliding parties.

// AddrCollisionError reports two mesh slots that resolve to the same
// listen address. Since addrs[me] is this party's own listen slot, a
// collision with me also covers the self-dialing misconfiguration.
type AddrCollisionError struct {
	// Addr is the colliding address as configured.
	Addr string
	// Parties are the two party indices whose slots collide, in
	// ascending order.
	Parties [2]int
}

func (e *AddrCollisionError) Error() string {
	return fmt.Sprintf("transport: parties %d and %d share mesh address %q — every party needs its own listen address",
		e.Parties[0], e.Parties[1], e.Addr)
}

// validateMeshAddrs rejects duplicate (and therefore self-dialing)
// entries in a mesh address list. Comparison is on the canonical form,
// so ":9001" vs "0.0.0.0:9001" and "localhost:9001" vs
// "127.0.0.1:9001" are caught, while the same port on two distinct
// hosts stays legal.
func validateMeshAddrs(addrs []string) error {
	seen := make(map[string]int, len(addrs))
	for i, a := range addrs {
		key := canonicalAddr(a)
		if j, dup := seen[key]; dup {
			return &AddrCollisionError{Addr: a, Parties: [2]int{j, i}}
		}
		seen[key] = i
	}
	return nil
}

// canonicalAddr normalizes one host:port for collision comparison:
// the wildcard spellings ("", "0.0.0.0", "::") compare equal, and
// "localhost" compares equal to the loopback IP. Anything that does
// not parse as host:port is compared verbatim (the listener will
// reject it with its own error).
func canonicalAddr(a string) string {
	a = strings.TrimSpace(a)
	host, port, err := net.SplitHostPort(a)
	if err != nil {
		return a
	}
	switch host {
	case "", "0.0.0.0", "::":
		host = "*"
	case "localhost":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// FreeLoopbackAddrs reserves n distinct loopback addresses for tests
// and demos by briefly listening on port 0.
func FreeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs, nil
}
