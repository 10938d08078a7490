"""Benchmarks for the reproduction's extension experiments.

* ``ext-varlen`` — variable-length packets (the paper's future work);
* ``ext-slotsize`` — the Section 3.2.3 slot-size tradeoff, analytic model
  checked against the byte-level chip;
* ``ext-validation`` — Markov chains vs the explored buffer classes.
"""

from repro.experiments import ext_radix, ext_slotsize, ext_validation, ext_varlen


def test_extension_variable_length(run_once):
    result = run_once(ext_varlen.run, quick=True)
    print()
    print(result.render())
    # DAMQ stays clearly ahead of FIFO under variable-length traffic.
    assert result.data["gap_variable"] > 1.2


def test_extension_slot_size(run_once):
    result = run_once(ext_slotsize.run, quick=True)
    print()
    print(result.render())
    estimates = result.data["estimates"]
    # The designers' argument: 8B costs far fewer register bits than 4B
    # while fragmenting far less than 32B.
    assert estimates[8].register_bits_per_byte < estimates[4].register_bits_per_byte / 1.8
    assert estimates[8].expected_fragmentation < estimates[32].expected_fragmentation / 2
    # Chip-measured fragmentation tracks the analytic column loosely.
    for slot_bytes, measured in result.data["measured"].items():
        assert abs(measured - estimates[slot_bytes].expected_fragmentation) < 0.15


def test_extension_radix_sweep(run_once):
    result = run_once(ext_radix.run, quick=True)
    print()
    print(result.render())
    saturation = result.data["saturation"]
    radices = sorted({radix for _kind, radix in saturation})
    # DAMQ is the best architecture at every radix in the sweep.
    for radix in radices:
        best = max(
            ("FIFO", "SAMQ", "SAFC", "DAMQ"),
            key=lambda kind: saturation[(kind, radix)],
        )
        assert best == "DAMQ", (radix, best)


def test_extension_exact_chain_check(run_once):
    result = run_once(ext_validation.run, quick=True)
    print()
    print(result.render())
    for row in result.data["rows"]:
        assert row["max_error"] <= 1e-9, row
        assert row["explored"] <= row["modelled"], row
