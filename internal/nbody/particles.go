// Package nbody implements the particle-mesh N-body cosmology simulation
// that stands in for HACC (see DESIGN.md §2).
//
// The simulation evolves cold-dark-matter particles in a periodic comoving
// box from Zel'dovich initial conditions to z=0 with a Cloud-In-Cell /
// FFT-Poisson long-range force (the same PM structure as HACC's long-range
// solver) and a kick-drift-kick leapfrog in the scale factor. Its role in
// this reproduction is to produce genuinely clustered particle
// distributions whose halo mass function has the paper's critical property:
// billions of tiny halos and a handful of rare, enormous ones, which is
// what breaks the load balance of center finding and motivates the
// combined in-situ/co-scheduling workflow.
package nbody

import (
	"fmt"
)

// BytesPerParticle is the size of one raw Level 1 particle record: three
// float32 positions, three float32 velocities, a float32 potential/phi
// placeholder, an int64 tag — 36 bytes, matching the paper's statement that
// "each particle carries 36 bytes of information" (§3).
const BytesPerParticle = 36

// Particles is a structure-of-arrays particle container. Positions are
// comoving, in Mpc/h, inside [0, Box). Velocities are the code momenta
// p = a² dx/dt in units of H0=1 (see Simulation). Tags identify particles
// globally and survive redistribution, matching HACC's particle tags.
type Particles struct {
	X, Y, Z    []float64
	VX, VY, VZ []float64
	Tag        []int64
}

// NewParticles allocates a container for n particles.
func NewParticles(n int) *Particles {
	return &Particles{
		X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		VX: make([]float64, n), VY: make([]float64, n), VZ: make([]float64, n),
		Tag: make([]int64, n),
	}
}

// N returns the particle count.
func (p *Particles) N() int { return len(p.X) }

// Append adds one particle.
func (p *Particles) Append(x, y, z, vx, vy, vz float64, tag int64) {
	p.X = append(p.X, x)
	p.Y = append(p.Y, y)
	p.Z = append(p.Z, z)
	p.VX = append(p.VX, vx)
	p.VY = append(p.VY, vy)
	p.VZ = append(p.VZ, vz)
	p.Tag = append(p.Tag, tag)
}

// AppendFrom copies particle i of src onto the end of p.
func (p *Particles) AppendFrom(src *Particles, i int) {
	p.Append(src.X[i], src.Y[i], src.Z[i], src.VX[i], src.VY[i], src.VZ[i], src.Tag[i])
}

// Concat returns a new container holding the particles of every part, in
// argument order: one exact-size allocation and one copy per column and
// part, which is how particles move between ranks, files and products.
func Concat(parts ...*Particles) *Particles {
	n := 0
	for _, p := range parts {
		n += p.N()
	}
	q := NewParticles(n)
	at := 0
	for _, p := range parts {
		copy(q.X[at:], p.X)
		copy(q.Y[at:], p.Y)
		copy(q.Z[at:], p.Z)
		copy(q.VX[at:], p.VX)
		copy(q.VY[at:], p.VY)
		copy(q.VZ[at:], p.VZ)
		copy(q.Tag[at:], p.Tag)
		at += p.N()
	}
	return q
}

// Select returns a new container holding the particles at the given indices.
func (p *Particles) Select(idx []int) *Particles {
	q := NewParticles(len(idx))
	for out, i := range idx {
		q.X[out], q.Y[out], q.Z[out] = p.X[i], p.Y[i], p.Z[i]
		q.VX[out], q.VY[out], q.VZ[out] = p.VX[i], p.VY[i], p.VZ[i]
		q.Tag[out] = p.Tag[i]
	}
	return q
}

// Validate checks the container's arrays are consistent.
func (p *Particles) Validate() error {
	n := len(p.X)
	if len(p.Y) != n || len(p.Z) != n || len(p.VX) != n || len(p.VY) != n || len(p.VZ) != n || len(p.Tag) != n {
		return fmt.Errorf("nbody: inconsistent particle arrays: %d/%d/%d/%d/%d/%d/%d",
			len(p.X), len(p.Y), len(p.Z), len(p.VX), len(p.VY), len(p.VZ), len(p.Tag))
	}
	return nil
}
