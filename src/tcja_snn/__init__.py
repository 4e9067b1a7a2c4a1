"""Spiking neural network training engine with temporal-channel joint attention."""
