package smrseek

import (
	"smrseek/internal/band"
	"smrseek/internal/disk"
)

// Device is the disk model a simulation runs against; set one on
// Config.Device to replace the default infinite-disk model. The two
// built-in implementations are the infinite model (nil / disk.New) and
// the finite banded model (NewBandDevice).
type Device = disk.Device

// BandPolicy selects where the banded device places redirected
// (cache-bound) writes.
type BandPolicy = band.Policy

// PolA appends to the nearest cache log with room and cleans the
// globally dirtiest band (many-cache cleaning).
const PolA = band.PolA

// ParseBandPolicy parses the CLI spelling ("pol-a", "pol-b", "shelter").
func ParseBandPolicy(s string) (BandPolicy, error) { return band.ParsePolicy(s) }

// BandConfig describes the banded geometry and its persistent cache.
type BandConfig = band.Config

// BandDevice is the finite-disk banded SMR device model: per-band
// write pointers, a persistent on-disk cache for rewrites, and a band
// cleaning engine. It implements Device.
type BandDevice = band.Device

// NewBandDevice builds a banded device; attach it via Config.Device to
// run any simulation on the finite-disk model.
func NewBandDevice(cfg BandConfig) (*BandDevice, error) { return band.New(cfg) }
