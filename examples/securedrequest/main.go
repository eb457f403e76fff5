// Secured request: the Figure-3 pipeline over real HTTP through the
// handle-based API. A hosting environment publishes its security
// policy; Client.Invoke fetches it, selects a mechanism, establishes
// trust, and invokes the service under a context.Context; the container
// authenticates, authorizes, and audits before the application sees the
// call. Denials come back as typed errors matchable with errors.Is.
//
//	go run ./examples/securedrequest
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/authz"
	"repro/internal/ogsa"
	"repro/pkg/gsi"
)

// inventoryService is the "application": it never touches security.
type inventoryService struct{ *ogsa.Base }

func newInventoryService() *inventoryService {
	s := &inventoryService{Base: ogsa.NewBase()}
	s.Data.Set("datasets", []byte("climate-2003,physics-1998"))
	return s
}

func (s *inventoryService) Invoke(call *gsi.Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	switch call.Op {
	case "list":
		v, _ := s.Data.Query("datasets")
		return v, nil
	case "whoami":
		return []byte(call.Caller.Name.String()), nil
	default:
		return nil, fmt.Errorf("no such op %q", call.Op)
	}
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// Server side: bootstrap a CA + host + security stack, with an
	// authorization service that admits only Alice.
	policy := authz.NewPolicy(authz.DenyOverrides).Add(
		authz.Rule{
			Effect:    authz.EffectPermit,
			Subjects:  []string{"/O=Grid/CN=Alice"},
			Resources: []string{"ogsa:inventory"},
			Actions:   []string{"*"},
		},
		authz.Rule{
			Effect:    authz.EffectPermit,
			Subjects:  []string{"/O=Grid/CN=Alice"},
			Resources: []string{"ogsa:security/*"},
			Actions:   []string{"Count", "Verify", "Query"},
		},
	)
	boot, err := gsi.NewBootstrap("/O=Grid/CN=CA", "/O=Grid/CN=host inventory.example.org",
		&authz.PolicyEngine{Policy: policy, DefaultDeny: true})
	if err != nil {
		log.Fatal(err)
	}
	boot.Stack.Container.Publish("inventory", newInventoryService())
	url, shutdown, err := gsi.ServeHTTP(boot.Stack.Container, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer shutdown()
	fmt.Println("hosting environment listening at", url)

	// Client side: an Environment sharing the bootstrap's trust roots,
	// and a Client handle for Alice. Invoke runs the whole Figure-3
	// pipeline under the context.
	env, err := gsi.NewEnvironment(gsi.WithTrustStore(boot.Trust))
	if err != nil {
		log.Fatal(err)
	}
	alice, err := boot.CA.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	aliceClient, err := env.NewClient(alice)
	if err != nil {
		log.Fatal(err)
	}
	out, trace, err := aliceClient.Invoke(ctx, url, "inventory", "list", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("datasets: %s\n", out)
	fmt.Printf("pipeline trace: policy=%v tokens=%v invoke=%v (mechanism %s)\n",
		trace.PolicyFetch.Round(time.Microsecond),
		trace.TokenProcessing.Round(time.Microsecond),
		trace.Invocation.Round(time.Microsecond),
		trace.Mechanism)

	// Bob authenticates fine but is denied by the authorization service
	// (step 5) — surfaced as a typed gsi.ErrUnauthorized; the
	// application never sees his call.
	bob, err := boot.CA.NewEntity(gsi.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	bobClient, err := env.NewClient(bob)
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := bobClient.Invoke(ctx, url, "inventory", "list", nil); errors.Is(err, gsi.ErrUnauthorized) {
		fmt.Println("bob denied as expected (errors.Is(err, gsi.ErrUnauthorized)):", err)
	} else if err != nil {
		fmt.Println("bob denied as expected:", err)
	}

	// The audit service recorded everything, tamper-evidently.
	count, _, err := aliceClient.Invoke(ctx, url, "security/audit", "Count", nil)
	if err != nil {
		log.Fatal(err)
	}
	intact, _, err := aliceClient.Invoke(ctx, url, "security/audit", "Verify", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit log: %s events, chain %s\n", count, intact)
}
