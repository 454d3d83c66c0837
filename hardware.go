package privehd

import (
	"errors"
	"io"

	"privehd/internal/fpga"
	"privehd/internal/hdc"
	"privehd/internal/hdl"
	"privehd/internal/hrand"
	"privehd/internal/netlist"
)

// This file exposes the §III-D hardware path of the reproduction: LUT-6
// circuit models for the encoding quantizer, structural netlists, cost
// models, the paper's Table I platform models, and Verilog emission.

// Netlist is a structural LUT-6 netlist (inputs, LUT nodes, outputs) that
// can be evaluated bit-exactly or emitted as Verilog.
type Netlist = netlist.Netlist

// Platform models a hardware platform's throughput and energy on an HD
// workload (paper Table I).
type Platform = fpga.Platform

// Workload describes an HD inference workload for the platform models.
type Workload = fpga.Workload

// Platforms returns the paper's Table I platforms: Raspberry Pi, GPU and
// the Prive-HD FPGA design.
func Platforms() []Platform { return fpga.Platforms() }

// BipolarApproxLUTs is the Eq. 15 LUT-budget model for the approximate
// (Fig. 7a) partial-majority circuit at the given input count.
func BipolarApproxLUTs(inputs int) float64 { return fpga.BipolarApproxLUTs(inputs) }

// BipolarExactLUTs models the LUT budget of the exact popcount majority at
// the given input count.
func BipolarExactLUTs(inputs int) float64 { return fpga.BipolarExactLUTs(inputs) }

// BuildBipolarApprox synthesizes the Fig. 7a approximate partial-majority
// circuit for one output dimension with the given input count; the random
// input grouping is deterministic in the seed.
func BuildBipolarApprox(inputs int, seed uint64) (*Netlist, error) {
	if inputs <= 0 {
		return nil, errors.New("privehd: BuildBipolarApprox needs a positive input count")
	}
	nl, _ := netlist.BuildBipolarApprox(inputs, hrand.New(seed))
	return nl, nil
}

// BuildBipolarExact synthesizes the exact popcount-majority circuit for
// one output dimension with the given input count.
func BuildBipolarExact(inputs int) (*Netlist, error) {
	if inputs <= 0 {
		return nil, errors.New("privehd: BuildBipolarExact needs a positive input count")
	}
	return netlist.BuildBipolarExact(inputs, true), nil
}

// WriteVerilog emits a synthesizable Xilinx-style Verilog module for the
// netlist.
func WriteVerilog(w io.Writer, n *Netlist) error { return hdl.WriteVerilog(w, n) }

// Hardware simulates the §III-D FPGA quantization path for a pipeline's
// encoder: the exact popcount majority and the Fig. 7a approximate LUT-6
// circuit, both operating bit-exactly on the encoder's partial-product
// planes. Feed the outputs to Pipeline.PredictVector to measure the
// approximation's accuracy impact.
type Hardware struct {
	enc     *hdc.LevelEncoder
	circuit *fpga.BipolarCircuit
}

// Hardware builds the hardware quantization simulator for this pipeline.
// It requires the (default) Level encoding — the hardware path is defined
// over Eq. 2b's XNOR planes — and a known feature width.
func (p *Pipeline) Hardware(seed uint64) (*Hardware, error) {
	p.mu.RLock()
	cfg := p.cfg
	enc, _ := p.encoder.(*hdc.LevelEncoder)
	p.mu.RUnlock()
	if cfg.encoding != Level {
		return nil, errors.New("privehd: Hardware requires the Level encoding (Eq. 2b)")
	}
	if enc == nil {
		if cfg.features <= 0 {
			return nil, errors.New("privehd: Hardware needs the feature width (train first or pass WithFeatures)")
		}
		e, err := cfg.newEncoder()
		if err != nil {
			return nil, err
		}
		enc = e.(*hdc.LevelEncoder)
	}
	return &Hardware{
		enc:     enc,
		circuit: fpga.NewBipolarCircuit(enc.NumFeatures(), hrand.New(seed)),
	}, nil
}

// ExactQuantize encodes x and 1-bit quantizes it with the exact popcount
// majority — the reference the approximate circuit is measured against.
func (h *Hardware) ExactQuantize(x []float64) []float64 {
	return fpga.ExactQuantizeEncoding(h.enc.BitPlanes(x), true)
}

// ApproxQuantize encodes x and 1-bit quantizes it with the Fig. 7a
// approximate LUT-6 partial-majority circuit.
func (h *Hardware) ApproxQuantize(x []float64) []float64 {
	return h.circuit.QuantizeEncoding(h.enc.BitPlanes(x))
}
