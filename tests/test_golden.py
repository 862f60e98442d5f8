"""Golden byte-identity of the CLI's outputs.

`detnet simulate`: the CSV and `.events` digests of small configs that
exercise every event-ordering case (ties between an arrival and zero-latency
contacts, parallel waves, d = 1 and 3, random walks in 1, 2 and 3 dimensions
and tied arrivals at a fixed site). A changed drain order or walk changes a
digest.

The analytic commands: one digest per command over the outputs of every
(dimension, mode, recruitment composition) config, in that order. A changed
writer, format or law changes a digest."""

import hashlib
import itertools

import pytest

from detnet.cli import dispatch
from detnet.scenarios import PROFILE_NAMES

GOLDEN = {
    "modular-straight": (
        "masses = 4096\nexponent = 1\ntrials = 1\nseed = 1\n",
        "ecbc186a327c8f553d6ec7a3e30fc54207ec2c6c55a4c40343f8e88c23280d94",
        "1937133cdb24c93b9aec32e2bd9032fbb3f4381b34ec62dee28d03ed6d96a27d",
        4102,
    ),
    "zero-latency": (
        "masses = 64 128\nexponent = 1\ncontact_latency = 0\ntrials = 2\nseed = 3\n",
        "2f850101629179727b69067e0fb77f1884d93179096406d41077987ac2ac8542",
        "c072163b7a03927a2712e103c2ee384a3277afeeac82537a3230dbf173208dfe",
        408,
    ),
    "parallel": (
        "masses = 1000\nexponent = 1\nrecruitment_composition = parallel\n"
        "trials = 2\nseed = 5\n",
        "306e35f3da6fd09bdcf61b1ac10120d13ccbe3a9224e0951b5111a0e9488095d",
        "fa261699c15b5a8a866882da78f990f61bc7fb39c728bdb854cd7f38763e0164",
        2012,
    ),
    "dimension-3": (
        "masses = 512\nexponent = 1\ndimension = 3\ntrials = 2\nseed = 7\n",
        "9699d14621265a8903ecab8c6f67a29855453c1ad3a70bb08ecf137db0ff423e",
        "cb76178a55eeebaee0d05dbbc86530b783b2afccb9e48167b8cdccf5816c41e6",
        1036,
    ),
    "random-walk": (
        "masses = 16\nexponent = 0.5\nmovement = random_walk\nwalk_step = 0.2\n"
        "detectors = 4\ntrials = 3\nseed = 11\n",
        "5b93c16d4fb5b8139071d543f105727b687e167549be60f4a3b31e3afff0eb23",
        "9926b911fb354fd5a6e58eeae09a00583d85e3adecf1f3466ae3869d217c0dec",
        48,
    ),
    "tied-arrivals": (
        "masses = 16 256\nexponent = 0.5\ndetectors = 3\nsite = 0.3 0.7\n"
        "trials = 2\nseed = 13\n",
        "8aec3b11345753c1eba274de8d09d749758cfd39f304cf1224e028dacda681ea",
        "b0aa30493dea1fdef4e3b502f87cd679fc368ec6973c5d362138427056d88215",
        80,
    ),
    # recorded before the random walk folded and measured its blocks in place
    "dimension-1": (
        "masses = 16 100\nexponent = 0.5\ndimension = 1\ntrials = 2\nseed = 17\n",
        "d6865ec597f330e3f0b2670b417c17a1fcbd568b3e882429c9ff1d1fe42f738f",
        "2748add82fd330f52b63d821ef565f594eb5cd9d90b6c3383a914df6e61872c2",
        52,
    ),
    "random-walk-1d": (
        "masses = 16\nexponent = 0.5\ndimension = 1\nmovement = random_walk\n"
        "walk_step = 0.2\ndetectors = 3\ntrials = 3\nseed = 19\n",
        "bee0a910496a9c6a241aa955ac2c8ba06c9b669b43a74843006c6d292581b893",
        "08004f9021f61ce696296eb72b837629da1f77e43c36d140870d61ee907ca91b",
        42,
    ),
    "random-walk-3d": (
        "masses = 8 27\nexponent = 1\ndimension = 3\nmovement = random_walk\n"
        "walk_step = 0.3\ndetectors = 2\ntrials = 3\nseed = 23\n",
        "d14a3c1b2d79f079aa9b0a03f92d5b745315fc21303d7831357f05361fa4d0fc",
        "8bbdfcb6f8d5057d05567a31267697d3990bcabb643e0653df0a1ad451f49e1f",
        153,
    ),
}


def run_simulate(tmp_path, text):
    out = tmp_path / "golden.csv"
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(text + f"output = {out}\n")
    assert dispatch(["simulate", "--config", str(cfg)]) == 0
    events = (tmp_path / "golden.csv.events").read_bytes()
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(events).hexdigest(),
            events.count(b"\n"))


@pytest.mark.parametrize("name", list(GOLDEN))
def test_simulate_outputs_are_byte_identical(name, tmp_path, capsys):
    text, csv_sha, events_sha, n_events = GOLDEN[name]
    assert run_simulate(tmp_path, text) == (csv_sha, events_sha, n_events)
    assert capsys.readouterr().out.endswith(f" and {n_events} events to {tmp_path}"
                                            "/golden.csv.events\n")


ANALYTIC_CONFIGS = [
    f"dimension = {d}\nmode = {mode}\nrecruitment_composition = {composition}\n"
    "masses = 0.01 1 100 1e4 1e6 1e10\ngrid_resolution = 0.001\n"
    for d, mode, composition in itertools.product((1, 2, 3), ("spatial", "contention"),
                                                   ("serial", "parallel"))
]

# command -> (argv, sha256 of its outputs over ANALYTIC_CONFIGS): the CSV, or
# stdout for `analyze`, which writes no file
ANALYTIC_GOLDEN = {
    "sweep": (["sweep"],
              "70255f468558773a416afed4d0cf6d75404017f914cd495126a20c9f0629b713"),
    "scenario-all": (["scenario", "--profile", "all"],
                     "00e6ded996e31bd4e31f1da0ebb701320eb360da89969750cf8f9a29144d9764"),
    **{f"scenario-{profile}": (["scenario", "--profile", profile], sha)
       for profile, sha in zip(PROFILE_NAMES, (
           "e60639e70d4cd3e5d84e5f1bc26f70ab0be71c6675fec900994b764045c8de5e",
           "37bd19d7c909eecd25f4d49ac8d7e5b88104bd37a3fd96d03e1444369f4c6e24",
           "4e1aa427917d2b7f362aa9339609a0f245cb450e282986a49cfc951ced459338",
           "6401812e0bc2800ed5c2d625c3257500c38da1d9a105e6ed3b17d96d92bed986",
       ))},
    "analyze": (["analyze", "--mass", "256", "--exponent", "0.5"],
                "cd32c4b521c4e6f960d3aac877d2a5d934ebe4bb3879fa4d9f95736c8ba9f948"),
}


@pytest.mark.parametrize("name", list(ANALYTIC_GOLDEN))
def test_analytic_outputs_are_byte_identical(name, tmp_path, capsys):
    argv, sha = ANALYTIC_GOLDEN[name]
    out = tmp_path / "golden.csv"
    cfg = tmp_path / "golden.cfg"
    digest = hashlib.sha256()
    for text in ANALYTIC_CONFIGS:
        out.unlink(missing_ok=True)
        cfg.write_text(text + f"output = {out}\n")
        assert dispatch([*argv, "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        digest.update(stdout.encode() if name == "analyze" else out.read_bytes())
    assert digest.hexdigest() == sha
