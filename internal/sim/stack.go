package sim

// Stack composes several protocols on one node behind the single Protocol
// slot the MAC drives — the mechanism that lets the measurement plane
// (probes + link-state floods, §3.2.1(b)) run *inside* the simulation,
// contending for the same medium as the data traffic it serves, instead of
// in a separate pre-measurement pass.
//
// Layers are ordered: when the MAC wins a transmission opportunity, Pull
// walks the layers front to back and sends the first frame offered, so the
// first layer has strict priority (the control plane's small periodic
// frames preempt bulk data, like a real driver's priority queue). Every
// decoded frame is delivered to every layer — each protocol already ignores
// payload types it does not own — and the Sent callback is routed to the
// layer that supplied the frame.
type Stack struct {
	layers []Protocol
	// riders[i] is layers[i] as a Piggybacker, nil when it is not one;
	// resolved in NewStack so that Pull asserts no types.
	riders []Piggybacker
	// puller is the layer that supplied the frame currently in the MAC.
	// The MAC handles exactly one pulled frame at a time (Sent always
	// fires before the next Pull), so one slot suffices.
	puller Protocol
}

// Piggybacker is a stack layer that can attach control payloads to a frame
// another layer is about to transmit (Frame.Piggyback): when Pull selects a
// frame, every *other* layer implementing this interface is offered it
// before the MAC takes over. The implementor appends payloads and grows
// Frame.Bytes accordingly; the attached payloads ride the same broadcast and
// reach every decoding neighbor for zero extra frames.
type Piggybacker interface {
	Piggyback(f *Frame)
}

// NewStack composes the given protocols, first layer highest priority.
func NewStack(layers ...Protocol) *Stack {
	s := &Stack{layers: layers, riders: make([]Piggybacker, len(layers))}
	for i, l := range layers {
		s.riders[i], _ = l.(Piggybacker)
	}
	return s
}

// Init implements Protocol.
func (s *Stack) Init(n *Node) {
	for _, l := range s.layers {
		l.Init(n)
	}
}

// Receive implements Protocol: every layer sees every decoded frame.
func (s *Stack) Receive(f *Frame) {
	for _, l := range s.layers {
		l.Receive(f)
	}
}

// Pull implements Protocol: the first layer with traffic wins the
// transmission opportunity, then every other Piggybacker layer may attach
// pending control payloads to the winning frame.
func (s *Stack) Pull() *Frame {
	for i, l := range s.layers {
		f := l.Pull()
		if f == nil {
			continue
		}
		s.puller = l
		for j, pb := range s.riders {
			if j != i && pb != nil {
				pb.Piggyback(f)
			}
		}
		return f
	}
	s.puller = nil
	return nil
}

// Sent implements Protocol, routing the outcome to the pulling layer.
func (s *Stack) Sent(f *Frame, ok bool) {
	if p := s.puller; p != nil {
		s.puller = nil
		p.Sent(f, ok)
	}
}
