package core

import (
	"sort"
	"sync"

	"livedev/internal/dyn"
)

// Binding is the server half of one RMI technology integrated into the SDE
// — the seam that makes a new technology a registry entry instead of a
// cross-cutting edit. Serve builds the technology's subsystem bundle
// (interface generator + DL Publisher + call handler, the Figure 4/5 shape)
// for one managed class, using the Manager's shared services: the Interface
// Server for publication (Manager.InterfaceServer, Manager.NewPublisher),
// the shared endpoint listener for HTTP transports (Manager.MountHTTP for
// net/http handlers, Manager.MountH2 for cleartext HTTP/2 ones), or its
// own listener for custom transports (the CORBA binding's IIOP port is
// the only one in tree).
//
// Implementations must:
//   - publish an initial interface description before Serve returns
//     (Section 4: registration "immediately publishes a basic definition");
//   - refuse calls until Server.CreateInstance provides the live instance;
//   - run the Section 5.7 forced-publication protocol before replying
//     "non-existent method" to a stale call, unless the manager's
//     ActivePublishingOnly ablation is set (Manager.ReactivePublication);
//   - call Manager.Unregister(class name) from Server.Close.
type Binding interface {
	// Name is the technology name servers and clients resolve ("SOAP",
	// "CORBA", "JSON", ...). Names are case-sensitive and process-wide.
	Name() string
	// Serve deploys class as a live server of this technology under m.
	Serve(m *Manager, class *dyn.Class) (Server, error)
}

var (
	bindingMu sync.RWMutex
	bindings  = make(map[string]Binding)
)

// RegisterBinding adds (or replaces) a server binding in the process-wide
// registry. Manager.Register resolves technologies against it.
func RegisterBinding(b Binding) {
	if b == nil || b.Name() == "" {
		panic("core: binding needs a name")
	}
	bindingMu.Lock()
	bindings[b.Name()] = b
	bindingMu.Unlock()
}

// LookupBinding returns the named server binding.
func LookupBinding(name string) (Binding, bool) {
	bindingMu.RLock()
	defer bindingMu.RUnlock()
	b, ok := bindings[name]
	return b, ok
}

// BindingNames returns the registered technology names, sorted.
func BindingNames() []string {
	bindingMu.RLock()
	names := make([]string, 0, len(bindings))
	for n := range bindings {
		names = append(names, n)
	}
	bindingMu.RUnlock()
	sort.Strings(names)
	return names
}

// The built-in SOAP and CORBA bindings register themselves through the same
// seam third-party technologies use; nothing in the dispatch path knows
// them specially.
func init() {
	RegisterBinding(soapBinding{})
	RegisterBinding(corbaBinding{})
}

type soapBinding struct{}

func (soapBinding) Name() string { return string(TechSOAP) }
func (soapBinding) Serve(m *Manager, class *dyn.Class) (Server, error) {
	return newSOAPServer(m, class)
}

type corbaBinding struct{}

func (corbaBinding) Name() string { return string(TechCORBA) }
func (corbaBinding) Serve(m *Manager, class *dyn.Class) (Server, error) {
	return newCORBAServer(m, class)
}
