"""Interactive SamzaSQL shell (the SqlLine role of §4.1).

"Users interact with SamzaSQL through a special SQL shell build using
SqlLine library and a custom SamzaSQL specific JDBC driver implementation.
SamzaSQL shell is a command line application that runs on users' desktop."

This REPL runs against the in-process reproduction stack, through the
multi-tenant front door (:mod:`repro.serving`): every statement is
policy-validated and admission-controlled before planning, and errors
carry structured codes plus source positions.  Statements end with
``;``.  Bang-commands:

* ``!tables`` — list catalog objects
* ``!explain <query>`` — logical + physical plan, fused/interpreted status
* ``!queries`` — running streaming queries
* ``!results <n>`` — sample output of query *n*
* ``!metrics [n]`` — latest operator metrics snapshots (all jobs, or query *n*)
* ``!run`` — drive the cluster until idle
* ``!demo`` — load the paper's Orders/Products demo data
* ``!connect <tenant> [session]`` — switch to a named persistent session
* ``!session`` — show the current session (tenant, variables, queries)
* ``!set <name> <value>`` — set a session variable
* ``!vt list`` — list virtual tables (deterministic order)
* ``!vt sources`` / ``!vt source <name>`` — list / add data sources
* ``!vt create <source> <name> <schema> [stream|table] [key]`` — map a
  topic to a virtual table (``<schema>``: orders, products or packets)
* ``!vt drop <name> [force]`` — drop a virtual table
* ``!quit``

Run:  python -m repro.samzasql.cli
"""

from __future__ import annotations

import sys
from typing import IO

from repro.common import ReproError
from repro.samza import JobRunner
from repro.samzasql.environment import SamzaSqlEnvironment
from repro.samzasql.shell import QueryHandle, SamzaSQLShell
from repro.serving import FrontDoor, PendingQuery, PipelineError
from repro.workloads import (
    OrdersGenerator,
    ProductsGenerator,
    PACKETS_SCHEMA,
    PRODUCTS_SCHEMA,
    padded_orders_schema,
)

#: Schemas the ``!vt create`` command can map topics with.  A real
#: deployment reads these from the schema registry; the REPL ships the
#: paper's workload schemas.
VT_SCHEMAS = {
    "orders": padded_orders_schema,
    "products": lambda: PRODUCTS_SCHEMA,
    "packets": lambda: PACKETS_SCHEMA,
}

#: The implicit tenant a bare REPL runs as: legacy single-user powers.
LOCAL_TENANT = "local"


def build_default_shell() -> tuple[SamzaSQLShell, JobRunner]:
    env = SamzaSqlEnvironment(broker_count=3, node_count=3,
                              node_mem_mb=61_000, start_ms=0)
    return env.shell, env.runner


class SamzaSQLCli:
    """Line-oriented REPL over a :class:`SamzaSQLShell`."""

    PROMPT = "samzasql> "
    CONTINUATION = "      ..> "

    def __init__(self, shell: SamzaSQLShell | None = None,
                 runner: JobRunner | None = None,
                 out: IO[str] = sys.stdout,
                 front_door: FrontDoor | None = None):
        if shell is None:
            shell, runner = build_default_shell()
        self.shell = shell
        self.runner = runner if runner is not None else shell.runner
        self.out = out
        self.front_door = front_door or FrontDoor(shell)
        if LOCAL_TENANT not in self.front_door._policies:
            self.front_door.register_tenant(LOCAL_TENANT)
        self.session = self.front_door.connect(LOCAL_TENANT, "main")
        self.handles: list[QueryHandle] = []
        self._buffer: list[str] = []
        self.done = False

    # -- output ------------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    # -- the REPL ----------------------------------------------------------------------

    def process_line(self, line: str) -> None:
        """Feed one input line; executes when a statement completes."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("!"):
            self._command(stripped)
            return
        if not stripped and not self._buffer:
            return
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self._buffer)
            self._buffer = []
            self._execute(statement)

    @property
    def prompt(self) -> str:
        return self.CONTINUATION if self._buffer else self.PROMPT

    def run(self, stdin: IO[str] = sys.stdin) -> None:  # pragma: no cover - interactive
        self._print("SamzaSQL shell — statements end with ';', !help for commands")
        while not self.done:
            try:
                self.out.write(self.prompt)
                self.out.flush()
                line = stdin.readline()
            except KeyboardInterrupt:
                break
            if not line:
                break
            self.process_line(line)

    # -- statement execution --------------------------------------------------------------

    def _execute(self, statement: str) -> None:
        try:
            result = self.front_door.execute(self.session, statement)
        except PipelineError as exc:
            # Structured: code + position, e.g.
            # ERROR: [TABLE_NOT_FOUND] unknown ... at line 1, column 22
            self._print(f"ERROR: {exc}")
            return
        except ReproError as exc:
            self._print(f"ERROR: {exc}")
            return
        if result is None:
            self._print("view created.")
            return
        if isinstance(result, PendingQuery):
            self._print("queued by admission control; the query starts "
                        "when a slot frees (!queries to check)")
            return
        if isinstance(result, str):
            self._print(result)  # EXPLAIN report
            return
        if isinstance(result, list):
            self._print_rows(result)
            return
        self.handles.append(result)
        self._print(f"started streaming query #{len(self.handles)} "
                    f"({result.query_id}) -> stream '{result.output_stream}'")
        for warning in result.warnings:
            self._print(f"WARNING: {warning}")
        self._print("use !run to advance the cluster, "
                    f"!results {len(self.handles)} to sample output")

    def _print_rows(self, rows: list[dict], limit: int = 20) -> None:
        if not rows:
            self._print("(no rows)")
            return
        columns = list(rows[0])
        widths = {
            c: max(len(c), *(len(str(r.get(c))) for r in rows[:limit]))
            for c in columns
        }
        header = " | ".join(c.ljust(widths[c]) for c in columns)
        self._print(header)
        self._print("-+-".join("-" * widths[c] for c in columns))
        for row in rows[:limit]:
            self._print(" | ".join(str(row.get(c)).ljust(widths[c])
                                   for c in columns))
        if len(rows) > limit:
            self._print(f"... {len(rows) - limit} more rows")
        self._print(f"{len(rows)} row(s)")

    # -- bang commands ------------------------------------------------------------------------

    def _command(self, text: str) -> None:
        parts = text.split()
        command, args = parts[0].lower(), parts[1:]
        if command in ("!quit", "!exit", "!q"):
            self.done = True
            self._print("bye.")
        elif command == "!help":
            self._print(__doc__.split("Bang-commands:")[1])
        elif command == "!tables":
            names = self.shell.catalog.object_names()
            self._print("\n".join(names) if names else "(empty catalog)")
        elif command == "!explain":
            # Routed through the front door so policy validation applies
            # (an EXPLAIN may not see tables the tenant cannot read).
            query = " ".join(args).rstrip(";")
            self._execute(f"EXPLAIN {query};")
        elif command == "!queries":
            if not self.handles:
                self._print("(no streaming queries)")
            for index, handle in enumerate(self.handles, 1):
                self._print(f"#{index} {handle.query_id}: {handle.sql.strip()[:70]}")
        elif command == "!results":
            try:
                handle = self.handles[int(args[0]) - 1]
            except (IndexError, ValueError):
                self._print("usage: !results <query number>")
                return
            self._print_rows(handle.results())
        elif command == "!metrics":
            job = None
            if args:
                try:
                    job = self.handles[int(args[0]) - 1].query_id
                except (IndexError, ValueError):
                    self._print("usage: !metrics [query number]")
                    return
            records = self.shell.latest_snapshots(job=job, force=True)
            if not records:
                self._print("(no metrics snapshots; is metrics reporting "
                            "enabled and a query running?)")
                return
            shown = [
                {"job": r["job"], "container": r["container"],
                 "operator": r["operator"] or "-", "part": r["part"],
                 "metric": r["metric"], "kind": r["kind"], "value": r["value"]}
                for r in records
            ]
            self._print_rows(shown, limit=40)
        elif command == "!run":
            processed = self.runner.run_until_quiescent()
            self._print(f"processed {processed} messages; cluster idle.")
        elif command == "!demo":
            self._load_demo()
        elif command == "!connect":
            self._connect(args)
        elif command == "!session":
            self._show_session()
        elif command == "!sessions":
            for session in self.front_door.sessions.list_sessions():
                self._print(f"{session.session_id}: "
                            f"{session.statements} statement(s), "
                            f"{len(session.running_handles())} running")
        elif command == "!set":
            if len(args) < 2:
                self._print("usage: !set <name> <value>")
                return
            self.session.set_variable(args[0], " ".join(args[1:]))
            self._print(f"{args[0]} = {self.session.get_variable(args[0])}")
        elif command == "!vt":
            self._vt_command(args)
        else:
            self._print(f"unknown command {command}; try !help")

    # -- serving-layer commands ---------------------------------------------

    def _connect(self, args: list[str]) -> None:
        if not args:
            self._print("usage: !connect <tenant> [session]")
            return
        tenant = args[0]
        name = args[1] if len(args) > 1 else "main"
        if tenant not in self.front_door._policies:
            self.front_door.register_tenant(tenant)
        self.session = self.front_door.connect(tenant, name)
        self._print(f"connected: session {self.session.session_id} "
                    f"({len(self.session.running_handles())} running "
                    f"quer{'y' if len(self.session.running_handles()) == 1 else 'ies'})")

    def _show_session(self) -> None:
        session = self.session
        self._print(f"session {session.session_id}")
        self._print(f"  default datasource: {session.default_datasource}")
        self._print(f"  statements: {session.statements}")
        self._print(f"  running queries: "
                    f"{[h.query_id for h in session.running_handles()]}")
        for key in sorted(session.variables):
            self._print(f"  {key} = {session.variables[key]}")

    def _vt_command(self, args: list[str]) -> None:
        catalog = self.front_door.catalog
        sub = args[0].lower() if args else "list"
        try:
            if sub == "list":
                tables = catalog.list_tables()
                if not tables:
                    self._print("(no virtual tables)")
                for vt in tables:
                    self._print(f"{vt.qualified_name}: {vt.kind} over topic "
                                f"'{vt.topic}' ({vt.serde})")
            elif sub == "sources":
                for source in catalog.list_data_sources():
                    self._print(source.name)
            elif sub == "source":
                if len(args) < 2:
                    self._print("usage: !vt source <name>")
                    return
                catalog.add_data_source(args[1])
                self._print(f"data source '{args[1]}' registered.")
            elif sub == "create":
                if len(args) < 4 or args[3].lower() not in VT_SCHEMAS:
                    self._print("usage: !vt create <source> <name> <schema> "
                                f"[stream|table] [key]; schemas: "
                                f"{sorted(VT_SCHEMAS)}")
                    return
                kind = args[4].lower() if len(args) > 4 else "stream"
                key_field = args[5] if len(args) > 5 else ""
                vt = catalog.create(
                    args[2], args[1], VT_SCHEMAS[args[3].lower()](),
                    kind=kind, key_field=key_field)
                self._print(f"created {vt.qualified_name} ({vt.kind}) "
                            f"over topic '{vt.topic}'")
            elif sub == "drop":
                if len(args) < 2:
                    self._print("usage: !vt drop <name> [force]")
                    return
                force = len(args) > 2 and args[2].lower() == "force"
                vt = catalog.drop(args[1], force=force)
                self._print(f"dropped {vt.qualified_name}")
            else:
                self._print(f"unknown !vt subcommand {sub!r}; "
                            "try list/sources/source/create/drop")
        except PipelineError as exc:
            self._print(f"ERROR: {exc}")

    def _load_demo(self) -> None:
        if self.shell.catalog.stream("Orders") is not None:
            self._print("demo data already loaded.")
            return
        self.shell.register_stream("Orders", padded_orders_schema(), partitions=8)
        self.shell.register_table("Products", PRODUCTS_SCHEMA,
                                  key_field="productId", partitions=8)
        OrdersGenerator(product_count=20).produce(
            self.shell.cluster, "Orders", 500, partitions=8)
        ProductsGenerator(product_count=20).produce(
            self.shell.cluster, "Products-changelog", partitions=8)
        self._print("loaded: Orders stream (500 records), Products relation "
                    "(20 rows). Try:\n"
                    "  SELECT STREAM * FROM Orders WHERE units > 50;\n"
                    "  SELECT productId, COUNT(*) AS c FROM Orders GROUP BY productId;")


def main() -> None:  # pragma: no cover - interactive entry point
    SamzaSQLCli().run()


if __name__ == "__main__":  # pragma: no cover
    main()
