"""The three benchmark workloads, each a closed loop of one client.

A workload builds its inputs from the seed, computes reference answers on
a separate interpreter session with the optimizer disabled, and then runs
client sessions one after another until the window closes.  A session
sets the system up, sends a fixed number of queries one after another,
comparing every answer with its reference, and closes.  Every session
does the same work however fast the machine is: one long session would
let the machine's speed decide how many queries it ages by, and a
session's type checker slows and grows as it ages (see ``DESIGN.md``).

Counters come from read-outs the program already has: ``EvalStatistics``
(captured per run from the engine's thread-local statistics), driver
``request_count``, ``RemoteCallLog``, ``client.last_admission`` and the
bytes of each reply frame.
"""

from __future__ import annotations

import itertools
import resource
import statistics
import time
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.bio.chromosome22 import build_chromosome22
from repro.bio.gdb import build_gdb
from repro.bio.publications import PUBLICATION_TYPE, build_publications
from repro.bio.sequences import SequenceGenerator
from repro.core.errors import ReproError
from repro.core.optimizer import OptimizerConfig
from repro.core.values import CSet
from repro.kleisli.drivers import EntrezDriver, RelationalDriver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.session import Session
from repro.net import framing
from repro.server import KleisliClient, KleisliServer
from repro.server import service as service_module

from calibration import Speed
from queries import (ASN_IDS, DOE, JNAME, LOCI22, YEARS, PubQuery, every_pub_query,
                     pub_query_stream)

#: The ``EvalStatistics`` counters summed over a window's engine runs.
COUNTERS = ("elements_fetched", "ext_iterations", "scalar_stages",
            "stream_fallbacks", "compile_cache_hits", "compile_cache_misses",
            "cache_hits", "cache_misses", "retries")

#: Sessions after which the run reads the process's peak memory.  Memory
#: grows with every session (see ``DESIGN.md``), so a reading at the end
#: of the window would grow with the machine's speed.
RSS_SESSIONS = 5

#: The share of loci not on chromosome 22 that ``build_gdb`` gives a
#: GenBank reference (every chromosome-22 locus has one).
OTHER_REFERENCE_SHARE = 0.4


def clock() -> Tuple[float, float]:
    """Wall-clock and process CPU time now."""
    return time.perf_counter(), time.process_time()


def since(started: Tuple[float, float]) -> Tuple[float, float]:
    """Wall-clock and process CPU time since ``started``."""
    wall, cpu = clock()
    return wall - started[0], cpu - started[1]


class Samples:
    """What the client saw during a window, and the read-outs summed over
    its sessions.

    Times are taken as (wall, CPU) pairs and kept pending until the
    session ends; then each becomes ``wall + cpu * (scale - 1)``: the CPU
    time the process spent is scaled to the reference speed (see
    :mod:`calibration`), and the rest, waiting, is kept as measured.
    """

    def __init__(self) -> None:
        #: Per completed query, from send to the last row.
        self.latencies: List[float] = []
        #: Per completed streamed query, from open to the first row; an
        #: eager run hands over its first row with the whole answer.
        self.ttfr: List[float] = []
        #: Per session, its set-up.
        self.setups: List[float] = []
        #: Per completed query, as measured.
        self.wall_latencies: List[float] = []
        #: Per session, the scale of its CPU time.
        self.scales: List[float] = []
        self._pending: Dict[str, List[Tuple[float, float]]] = {
            "latencies": [], "ttfr": [], "setups": []}
        self.rows = 0
        self.attempted = 0
        self.failed = 0
        self.admitted = 0
        self.queued = 0
        #: :data:`COUNTERS` summed over every engine run, and ``runs``.
        self.totals: Counter = Counter()
        #: Source requests per driver name.
        self.requests: Counter = Counter()
        #: ``RemoteCallLog`` entries of every source.
        self.calls: List[dict] = []
        #: Bytes of every reply frame the query service sent for a query.
        self.reply_bytes = 0
        #: Peak resident memory after :data:`RSS_SESSIONS` sessions, in MB.
        self.peak_rss_mb = 0.0

    @property
    def queries(self) -> int:
        """Engine runs, at least 1, that per-query counters divide by."""
        return max(1, self.totals["runs"])

    def per_query(self, counter: str) -> float:
        return self.totals[counter] / self.queries

    def drain(self, rows: Iterable[object], started: Tuple[float, float]) -> CSet:
        """Collect a streamed answer, timing its first row."""
        collected = []
        for row in rows:
            if not collected:
                self._pending["ttfr"].append(since(started))
            collected.append(row)
        return CSet(collected)

    def record(self, value: object, expected: object,
               started: Tuple[float, float], first_row: bool = False) -> None:
        """Count one completed query; a wrong answer counts as failed.
        ``first_row``: the answer's first row came with it."""
        latency = since(started)
        self._pending["latencies"].append(latency)
        if first_row:
            self._pending["ttfr"].append(latency)
        self.wall_latencies.append(latency[0])
        self.rows += len(value)
        if value != expected:
            self.failed += 1

    def end_session(self, setup: Tuple[float, float], scale: float) -> None:
        """Turn the session's pending times into reference-speed times."""
        self._pending["setups"].append(setup)
        self.scales.append(scale)
        for name, pending in self._pending.items():
            getattr(self, name).extend(wall + cpu * (scale - 1)
                                       for wall, cpu in pending)
            pending.clear()


class Fixture:
    """A set-up system plus the read-outs the metrics are taken from."""

    def __init__(self, engine: KleisliEngine, session: Optional[Session] = None):
        self.engine = engine
        self.session = session
        #: :data:`COUNTERS` summed over every settled engine run, and
        #: ``runs``, their number.  Summed as each query ends, so the
        #: benchmark holds no per-query objects that would count in RSS.
        self.totals: Counter = Counter()
        #: Bytes of every reply frame the query service sent.
        self.reply_bytes = 0
        self._unsettled: List[object] = []
        self._capture_statistics()

    def settle(self) -> None:
        """Add the runs of the query that just ended to :attr:`totals`."""
        for statistics in self._unsettled:
            for counter in COUNTERS:
                self.totals[counter] += getattr(statistics, counter)
            self.totals["runs"] += 1
        self._unsettled.clear()

    def _capture_statistics(self) -> None:
        engine, sink = self.engine, self._unsettled
        execute, stream = engine.execute, engine.stream

        def captured_execute(*args, **kwargs):
            try:
                return execute(*args, **kwargs)
            finally:
                sink.append(engine.thread_eval_statistics())

        def captured_stream(*args, **kwargs):
            result = stream(*args, **kwargs)
            # Published when stream() returns; it keeps counting as the
            # stream drains.
            sink.append(engine.thread_eval_statistics())
            return result

        engine.execute = captured_execute
        engine.stream = captured_stream

    @property
    def drivers(self) -> Dict[str, object]:
        return self.engine.drivers

    def remote_calls(self) -> List[dict]:
        calls = []
        for driver in self.drivers.values():
            remote = getattr(driver, "remote", None)
            if remote is not None:
                calls += remote.log.calls
        return calls

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class Readout:
    """A fixture's read-outs from when the session's first query is sent."""

    def __init__(self, fixture: Fixture) -> None:
        self.fixture = fixture
        self._totals = fixture.totals.copy()
        self._requests = _driver_requests(fixture)
        self._calls = len(fixture.remote_calls())
        self._reply_bytes = fixture.reply_bytes

    def add_to(self, samples: Samples) -> None:
        """Add what changed since this read-out to ``samples``."""
        fixture = self.fixture
        samples.totals += fixture.totals - self._totals
        for driver, count in _driver_requests(fixture).items():
            samples.requests[driver] += count - self._requests[driver]
        samples.calls += fixture.remote_calls()[self._calls:]
        samples.reply_bytes += fixture.reply_bytes - self._reply_bytes


def _driver_requests(fixture: Fixture) -> Dict[str, int]:
    return {name: driver.request_count for name, driver in fixture.drivers.items()}


class Workload:
    """The closed loop every workload shares."""

    name: str
    #: Queries each client session sends.
    session_queries: int
    #: Queries of the untimed session run before the window opens, so
    #: lazy set-up has finished.
    warm_up_queries = 3

    def queries(self, seed: int) -> Iterator[object]:
        raise NotImplementedError

    def setup(self, inputs) -> Fixture:
        raise NotImplementedError

    def query(self, fixture: Fixture, query, references,
              samples: Samples) -> None:
        raise NotImplementedError

    def warm_up(self, inputs, references, speed: Speed) -> None:
        samples = Samples()
        queries = itertools.islice(self.queries(-1), self.warm_up_queries)
        self.session(inputs, references, queries, samples, speed)
        if samples.failed:
            raise RuntimeError(f"{self.name}: warm-up answers do not match")

    def run(self, inputs, references, seconds: float, seed: int,
            speed: Speed, tracer=None) -> Samples:
        """Client sessions until ``seconds`` have passed; the session under
        way then runs to its end."""
        samples = Samples()
        queries = self.queries(seed)
        qids = itertools.count(1)
        if tracer is not None:
            tracer.follow()
        deadline = time.perf_counter() + seconds
        sessions = 0
        while time.perf_counter() < deadline:
            self.session(inputs, references,
                         itertools.islice(queries, self.session_queries),
                         samples, speed, tracer, qids)
            sessions += 1
            if sessions <= RSS_SESSIONS:
                samples.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        return samples

    def session(self, inputs, references, queries: Iterable[object],
                samples: Samples, speed: Speed, tracer=None,
                qids: Optional[Iterator[int]] = None) -> None:
        """One client session: set up, send ``queries``, close."""
        first_reading = len(speed.readings)
        speed.read()
        started = clock()
        fixture = self.setup(inputs)
        setup = since(started)
        try:
            readout = Readout(fixture)
            for query in queries:
                speed.read_if_due()
                if tracer is None:
                    self._attempt(fixture, query, references, samples)
                    continue
                token = tracer.begin("bench.query", next(qids))
                try:
                    self._attempt(fixture, query, references, samples)
                finally:
                    tracer.end(token)
            readout.add_to(samples)
        finally:
            fixture.close()
        samples.end_session(setup, speed.scale(first_reading))

    def _attempt(self, fixture: Fixture, query, references,
                 samples: Samples) -> None:
        samples.attempted += 1
        try:
            self.query(fixture, query, references, samples)
        except ReproError:
            samples.failed += 1
        finally:
            fixture.settle()


class DoeWorkload(Workload):
    """The Fig. 1 DOE query over GDB and GenBank drivers, repeated.

    Each seed picks a dataset of a fixed shape: the number of loci on
    chromosome 22, and of GenBank references, equal to their expected
    values at the workload's chromosome-22 share.  Left to chance, those
    counts move the query's work (and its source requests) by a tenth or
    more between seeds.  Which loci, sequences and homology links appear
    still varies.
    """

    #: Candidate dataset seeds tried per benchmark seed.
    CANDIDATES = 4000

    def __init__(self, name: str, loci: int, share: float,
                 latency: Optional[float], streamed: bool,
                 session_queries: int):
        self.name = name
        self.loci = loci
        self.share = share
        self.latency = latency
        self.streamed = streamed
        self.session_queries = session_queries

    def build(self, seed: int):
        return build_chromosome22(locus_count=self.loci,
                                  chromosome22_fraction=self.share,
                                  seed=self.dataset_seed(seed))

    def dataset_seed(self, seed: int) -> int:
        """The first seed of ``seed``'s block whose GDB tables have the
        expected shape (``build_chromosome22`` draws its GDB first, from
        the same generator), else the closest one."""
        on_22 = round(self.share * self.loci)
        references = on_22 + round(OTHER_REFERENCE_SHARE * (self.loci - on_22))
        best = None
        for candidate in range(seed * self.CANDIDATES,
                               (seed + 1) * self.CANDIDATES):
            gdb = build_gdb(self.loci, self.share,
                            generator=SequenceGenerator(candidate),
                            with_indexes=False)
            distance = (abs(len(gdb.sql("select locus_id from locus "
                                        "where chromosome = '22'")) - on_22)
                        + abs(len(gdb.table("object_genbank_eref"))
                              - references))
            if best is None or distance < best[0]:
                best = (distance, candidate)
            if distance == 0:
                break
        return best[1]

    def references(self, dataset) -> Dict[str, object]:
        session = Session(optimizer_config=OptimizerConfig.disabled(),
                          execution_mode="interpret")
        session.register_driver(RelationalDriver("GDB", dataset.gdb))
        session.register_driver(EntrezDriver("GenBank", dataset.genbank))
        session.run(LOCI22)
        session.run(ASN_IDS)
        return {DOE: session.query(DOE).value}

    def setup(self, dataset) -> Fixture:
        session = Session()
        if self.latency is None:
            gdb = RelationalDriver("GDB", dataset.gdb)
            genbank = EntrezDriver("GenBank", dataset.genbank)
        else:
            gdb = RelationalDriver.with_latency(
                "GDB", dataset.gdb, latency=self.latency,
                max_concurrent_requests=5)
            genbank = EntrezDriver.with_latency(
                "GenBank", dataset.genbank, latency=self.latency,
                max_concurrent_requests=5)
        session.register_driver(gdb)
        session.register_driver(genbank)
        session.run(LOCI22)
        session.run(ASN_IDS)
        return Fixture(session.engine, session)

    def queries(self, seed: int) -> Iterator[str]:
        return itertools.repeat(DOE)

    def query(self, fixture: Fixture, query: str, references,
              samples: Samples) -> None:
        started = clock()
        if self.streamed:
            value = samples.drain(fixture.session.stream(query), started)
        else:
            value = fixture.session.run(query)
        samples.record(value, references[query], started,
                       first_row=not self.streamed)


class PubsServerWorkload(Workload):
    """The Section 2 Publication queries through the TCP query service.

    Each seed picks a publication set of a typical shape.  The flatten
    template's work is the number of keywords of the publications from its
    year on.  The mix's p90 falls among flatten queries from the middle
    year on, and their sum over all years sets much of the mean latency;
    left to chance, those counts moved p90 by a tenth between seeds.
    Which publications, titles and journals appear still varies.
    """

    name = "pubs_server"
    publications = 300
    fetch_batch = 16
    session_queries = 200
    warm_up_queries = 15
    #: Candidate publication sets built per benchmark seed.
    CANDIDATES = 200

    def build(self, seed: int):
        """The candidate of ``seed``'s block whose keywords from the middle
        year on, and from each year on summed over the years, are closest
        to the block's means."""
        seeds = range(seed * self.CANDIDATES, (seed + 1) * self.CANDIDATES)
        shapes = []
        for candidate in seeds:
            counts = _keywords_from_year(self._publications(candidate))
            shapes.append((counts[len(counts) // 2], sum(counts)))
        means = [statistics.fmean(values) for values in zip(*shapes)]
        chosen = min(zip(seeds, shapes), key=lambda pair: sum(
            abs(value / mean - 1) for value, mean in zip(pair[1], means)))[0]
        return self._publications(chosen)

    def _publications(self, seed: int):
        return build_publications(self.publications,
                                  generator=SequenceGenerator(seed))

    def references(self, publications) -> Dict[str, object]:
        session = Session(optimizer_config=OptimizerConfig.disabled(),
                          execution_mode="interpret")
        session.bind("DB", publications, cpl_type=PUBLICATION_TYPE)
        session.run(JNAME)
        return {query.text: session.query(query.text).value
                for query in every_pub_query()}

    def setup(self, publications) -> "ServerFixture":
        def session_setup(session: Session) -> None:
            session.bind("DB", publications, cpl_type=PUBLICATION_TYPE)
            session.run(JNAME)

        engine = KleisliEngine()
        fixture = ServerFixture(engine, KleisliServer(
            engine, session_setup=session_setup))
        try:
            fixture.client = KleisliClient(fixture.server.address)
            # The reply comes after the session's setup hook has run.
            fixture.client.hello()
        except BaseException:
            fixture.close()
            raise
        return fixture

    def queries(self, seed: int) -> Iterator[PubQuery]:
        return pub_query_stream(seed)

    def query(self, fixture: Fixture, query: PubQuery, references,
              samples: Samples) -> None:
        client = fixture.client
        started = clock()
        if query.streamed:
            value = samples.drain(
                client.stream(query.text, batch=self.fetch_batch), started)
        else:
            value = client.query(query.text)
        samples.admitted += 1
        samples.queued += client.last_admission == "queued"
        samples.record(value, references[query.text], started)


def _keywords_from_year(publications) -> List[int]:
    """Keywords of the publications from each year of the query mix on."""
    return [sum(len(publication["keywd"]) for publication in publications
                if publication["year"] >= year) for year in YEARS]


class ServerFixture(Fixture):
    """A started query service, its client, and a count of reply bytes."""

    def __init__(self, engine: KleisliEngine, server: KleisliServer):
        super().__init__(engine)
        self.server = server.start()
        self.client: Optional[KleisliClient] = None

        def send_message(sock, message):
            # framing.send_message, plus counting the frame's bytes.
            frame = framing.encode_frame(message)
            self.reply_bytes += len(frame)
            sock.sendall(frame)

        service_module.send_message = send_message

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            self.server.stop()
            service_module.send_message = framing.send_message


WORKLOADS = {
    # build_chromosome22's default 35% share of loci on chromosome 22.
    "doe_chr22": DoeWorkload("doe_chr22", loci=150, share=0.35,
                             latency=None, streamed=False,
                             session_queries=20),
    # Every locus on chromosome 22: the source requests dominate, and the
    # little CPU work per query contends little with the prefetch threads.
    "doe_remote": DoeWorkload("doe_remote", loci=20, share=1.0,
                              latency=0.005, streamed=True,
                              session_queries=10),
    "pubs_server": PubsServerWorkload(),
}
