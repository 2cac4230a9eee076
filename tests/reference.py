"""Reference implementations that only the tests call.

The package never needs these: the sweep mixes noise at the spectra stage
and never forms a noisy take, and the CLI only reads config files. The
tests compare the package against them, or use them to write fixtures.
"""

import json
from pathlib import Path

from melsplit.bench import CLEAN_SNR_DB
from melsplit.cli import PipelineConfig
from melsplit.signal_io import AudioBuffer, noise_scale


def stack_takes(plan, stacks, read, snr_db: float) -> dict:
    """{key: AudioBuffer} of every take of bench._noise_stacks's `stacks`,
    read through its `read`, at `snr_db`: a copy of the clean take at the
    clean point, else clean + c * u, the ANC-off take, or, once
    bench._cancel_stacks has cancelled the stacks, the ANC-on take. The
    time-domain reference for the sweep's spectra-level mixing."""
    takes = {}
    for key in (key for keys, _, _ in stacks for key in keys):
        a, u, clean_power, unit_power = read(key)
        if snr_db == CLEAN_SNR_DB:
            mixed = a.copy()
        else:
            mixed = a + noise_scale(clean_power, unit_power, snr_db) * u
        takes[key] = AudioBuffer(mixed, plan.sample_rate_hz)
    return takes


def save_config(cfg: PipelineConfig, path) -> None:
    """Write `cfg` as the JSON that cli.load_config reads."""
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
