package tor

import (
	"fmt"
	"math/rand"

	"ptperf/internal/geo"
)

// Flag marks relay roles, mirroring consensus flags.
type Flag uint8

// Relay role flags.
const (
	// FlagGuard marks relays eligible as first hop.
	FlagGuard Flag = 1 << iota
	// FlagExit marks relays eligible as last hop.
	FlagExit
	// FlagFast marks relays eligible as middle hop (all relays here).
	FlagFast
)

// Has reports whether all bits in q are set.
func (f Flag) Has(q Flag) bool { return f&q == q }

// Descriptor describes one relay to clients.
type Descriptor struct {
	// Name is the relay nickname, unique in the directory.
	Name string
	// Addr is the relay's ORPort address "host:port".
	Addr string
	// Flags are the roles this relay may serve.
	Flags Flag
	// Bandwidth is the advertised capacity in bytes per virtual second,
	// used as the path-selection weight.
	Bandwidth float64
	// Location is the relay's city.
	Location geo.Location
}

// Directory is the in-process consensus: the set of running relays.
type Directory struct {
	relays []*Descriptor
	byName map[string]*Descriptor
}

// NewDirectory returns an empty consensus.
func NewDirectory() *Directory {
	return &Directory{byName: make(map[string]*Descriptor)}
}

// Publish registers a relay descriptor.
func (d *Directory) Publish(desc *Descriptor) error {
	if _, dup := d.byName[desc.Name]; dup {
		return fmt.Errorf("tor: duplicate relay %q", desc.Name)
	}
	d.byName[desc.Name] = desc
	d.relays = append(d.relays, desc)
	return nil
}

// Withdraw removes a relay from the consensus (a crash, or churn's
// "descriptor leaves the directory"). Clients holding the descriptor
// pointer — pinned guards, live circuits — keep working; only future
// consensus-driven selection stops seeing the relay. Returns false when
// the relay was not listed. Publishing the same descriptor again
// re-appends it, so a withdraw/rejoin cycle is deterministic but moves
// the relay to the end of the consensus order.
func (d *Directory) Withdraw(name string) bool {
	if _, ok := d.byName[name]; !ok {
		return false
	}
	delete(d.byName, name)
	for i, r := range d.relays {
		if r.Name == name {
			d.relays = append(d.relays[:i], d.relays[i+1:]...)
			break
		}
	}
	return true
}

// Lookup finds a relay by nickname.
func (d *Directory) Lookup(name string) (*Descriptor, bool) {
	desc, ok := d.byName[name]
	return desc, ok
}

// Relays returns a snapshot of all descriptors.
func (d *Directory) Relays() []*Descriptor {
	return append([]*Descriptor(nil), d.relays...)
}

// WithFlag returns relays having all the given flags.
func (d *Directory) WithFlag(f Flag) []*Descriptor {
	var out []*Descriptor
	for _, r := range d.relays {
		if r.Flags.Has(f) {
			out = append(out, r)
		}
	}
	return out
}

// pickWeighted selects one descriptor with probability proportional to
// bandwidth, excluding any in skip.
func pickWeighted(rng *rand.Rand, cands []*Descriptor, skip ...*Descriptor) *Descriptor {
	var total float64
	excluded := func(c *Descriptor) bool {
		for _, s := range skip {
			if s != nil && s.Name == c.Name {
				return true
			}
		}
		return false
	}
	for _, c := range cands {
		if !excluded(c) {
			total += c.Bandwidth
		}
	}
	if total > 0 {
		x := rng.Float64() * total
		for _, c := range cands {
			if excluded(c) {
				continue
			}
			x -= c.Bandwidth
			if x <= 0 {
				return c
			}
		}
	}
	// Fallback for the cases the weighted draw cannot resolve: float
	// rounding can leave x > 0 after the loop, and an all-zero-bandwidth
	// candidate set never enters it. The old fallback returned the
	// *last* non-excluded candidate — order-dependent and blind to
	// weight; pick the largest remaining weight instead (first listed on
	// ties), which is deterministic and agrees with the draw's bias.
	return maxWeightPick(cands, excluded)
}

// maxWeightPick returns the non-excluded candidate with the largest
// bandwidth, first listed on ties; nil when every candidate is excluded.
func maxWeightPick(cands []*Descriptor, excluded func(*Descriptor) bool) *Descriptor {
	var best *Descriptor
	for _, c := range cands {
		if excluded(c) {
			continue
		}
		if best == nil || c.Bandwidth > best.Bandwidth {
			best = c
		}
	}
	return best
}

// Path is a guard-middle-exit relay triple.
type Path struct {
	// Guard is the first hop.
	Guard *Descriptor
	// Middle is the second hop.
	Middle *Descriptor
	// Exit is the last hop.
	Exit *Descriptor
}

// SelectPath draws a bandwidth-weighted path. Pinned entries (non-nil)
// are used as-is, mirroring the paper's fixed-circuit and fixed-guard
// experiments (§4.2.1, §5.2).
func (d *Directory) SelectPath(rng *rand.Rand, pinGuard, pinMiddle, pinExit *Descriptor) (Path, error) {
	guards := d.WithFlag(FlagGuard)
	exits := d.WithFlag(FlagExit)
	all := d.Relays()
	p := Path{Guard: pinGuard, Middle: pinMiddle, Exit: pinExit}
	if p.Guard == nil {
		p.Guard = pickWeighted(rng, guards, pinMiddle, pinExit)
	}
	if p.Exit == nil {
		p.Exit = pickWeighted(rng, exits, p.Guard, pinMiddle)
	}
	if p.Middle == nil {
		p.Middle = pickWeighted(rng, all, p.Guard, p.Exit)
	}
	if p.Guard == nil || p.Middle == nil || p.Exit == nil {
		return Path{}, fmt.Errorf("tor: not enough relays for a path (have %d)", len(all))
	}
	return p, nil
}
