"""The channel's RNG stream: CompatRng == random.Random, bit for bit.

Every fixed-seed golden in the suite depends on the channel's MT19937 word
sequence, so these tests pin CompatRng against the stdlib directly: same
seeding, same doubles, same integers, and — the point of the exercise —
vector draws that consume the stream exactly like the scalar loop they
replace.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import repro
from repro.radio import Channel, CompatRng, Frame, PerfectLinks
from repro.sim import Simulator, ms
from tests.test_radio import make_mote

_SEEDS = ["0/channel", "7/channel", "weird seed/with/slashes", ""]


class TestStreamEquivalence:
    def test_random_matches_stdlib(self):
        for seed in _SEEDS:
            ours, theirs = CompatRng(seed), random.Random(seed)
            assert [ours.random() for _ in range(200)] == [
                theirs.random() for _ in range(200)
            ]

    def test_integer_seeds_match_stdlib(self):
        for seed in (0, 1, 12345, -99, 2**64 + 17):
            ours, theirs = CompatRng(seed), random.Random(seed)
            assert [ours.random() for _ in range(50)] == [
                theirs.random() for _ in range(50)
            ]

    def test_getrandbits_matches_stdlib(self):
        ours, theirs = CompatRng("bits"), random.Random("bits")
        for bits in (1, 5, 31, 32, 33, 53, 64, 100, 513):
            assert ours.getrandbits(bits) == theirs.getrandbits(bits)

    def test_randint_matches_stdlib(self):
        ours, theirs = CompatRng("ints"), random.Random("ints")
        # Mixed widths, including the width-1 range whose rejection loop
        # still burns draws, and the MAC's real backoff windows.
        for low, high in [(0, 1), (5, 5), (400, 12_800), (800, 25_600), (0, 2**40)]:
            for _ in range(20):
                assert ours.randint(low, high) == theirs.randint(low, high)

    def test_mixed_stream_matches_stdlib(self):
        """Interleaved doubles and integers stay in lockstep — the channel's
        actual usage pattern (backoff randint between loss draws)."""
        ours, theirs = CompatRng("mixed"), random.Random("mixed")
        driver = random.Random(42)  # stream-shape chooser, not under test
        for _ in range(500):
            op = driver.randrange(3)
            if op == 0:
                assert ours.random() == theirs.random()
            elif op == 1:
                assert ours.randint(400, 12_800) == theirs.randint(400, 12_800)
            else:
                bits = driver.randint(1, 64)
                assert ours.getrandbits(bits) == theirs.getrandbits(bits)

    def test_vector_draw_consumes_stream_like_scalars(self):
        """The fan-out contract: ``random_vector(n)`` equals n scalar draws,
        and the stream *continues* identically afterwards — so a frame can
        take the vector path while the next takes the scalar path."""
        vec, scalar = CompatRng("vector"), random.Random("vector")
        for count in (1, 2, 7, 25, 1000):
            drawn = vec.random_vector(count)
            assert drawn.tolist() == [scalar.random() for _ in range(count)]
            # Interleave scalar traffic between vector draws.
            assert vec.random() == scalar.random()
            assert vec.randint(800, 25_600) == scalar.randint(800, 25_600)


class TestChannelStreamCompatibility:
    """End-to-end: the vectorized channel replays the scalar channel's
    fixed-seed history exactly, override and failure paths included."""

    def _deploy(self, seed, vector_min):
        sim = Simulator(seed=seed)
        channel = Channel(sim, PerfectLinks(range_m=100.0), grid_spacing_m=1.0)
        channel.vector_fanout_min = vector_min
        log = []
        radios = []
        for index in range(10):
            radio = channel.attach(make_mote(sim, index + 1, index % 4, index // 4))
            radio.set_receive_callback(
                lambda frame, me=index: log.append((me, frame.src, frame.payload))
            )
            radios.append(radio)
        return sim, channel, radios, log

    def _exercise(self, seed, vector_min):
        sim, channel, radios, log = self._deploy(seed, vector_min)
        radios[0].send(Frame(1, 0xFFFF, 0x10, b"a"))
        sim.run_until_idle()
        # Override installed mid-flight (the PR 5 regression path).
        radios[1].send(Frame(2, 0xFFFF, 0x10, b"b"))
        sim.run(duration=ms(1))
        channel.prr_overrides[(2, 5)] = 0.0
        sim.run_until_idle()
        # Failure injection mid-flight: a receiver powers down.
        radios[2].send(Frame(3, 0xFFFF, 0x10, b"c"))
        sim.run(duration=ms(1))
        radios[7].enabled = False
        sim.run_until_idle()
        radios[7].enabled = True
        del channel.prr_overrides[(2, 5)]
        radios[3].send(Frame(4, 0xFFFF, 0x10, b"d"))
        sim.run_until_idle()
        return log, (
            channel.frames_transmitted,
            channel.prr_drops,
            channel.collisions,
            channel.link_cache.cache_hits,
            channel.link_cache.cache_misses,
        )

    def test_vector_and_scalar_paths_are_bit_identical(self):
        for seed in range(4):
            vectorized = self._exercise(seed, vector_min=1)
            scalar = self._exercise(seed, vector_min=10_000)
            assert vectorized == scalar

    def test_channel_stream_matches_legacy_stdlib_stream(self):
        """The channel's CompatRng is seeded exactly like the pre-PR 6
        ``sim.rng("channel")`` stream, so historical goldens keep replaying."""
        sim = Simulator(seed=3)
        channel = Channel(sim, PerfectLinks())
        twin = random.Random("3/channel")
        assert [channel.rng.random() for _ in range(5)] == [
            twin.random() for _ in range(5)
        ]
        assert channel.rng.randint(400, 12_800) == twin.randint(400, 12_800)


class TestImportFootprint:
    def test_a_scenario_run_adds_no_numpy_random_import(self):
        """The radio draws from the stdlib.  On numpy >= 2, whose submodules
        load lazily, importing ``numpy.random`` would add about 6 MB of
        resident memory to every run.  numpy 1.x imports it with ``numpy``
        itself, so the check is against what ``import numpy`` alone loads."""
        script = (
            "import sys\n"
            "import numpy\n"
            "baseline = 'numpy.random' in sys.modules\n"
            "import repro\n"
            "from repro.scenarios import Scenario\n"
            "Scenario.from_spec({'name': 'footprint',"
            " 'topology': {'kind': 'grid', 'width': 4, 'height': 4},"
            " 'workload': {'kind': 'flood'}, 'duration_s': 5.0}).run()\n"
            "print(baseline, 'numpy.random' in sys.modules)\n"
        )
        src = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        baseline, after = done.stdout.split()
        assert after == baseline
