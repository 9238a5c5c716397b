.PHONY: all build test check lint bench repro clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# Bare polymorphic compare/hash silently degrade to structural
# traversal (and allocate through the comparator); library code must
# use the monomorphic Int/String versions or an explicit comparator.
# The same goes for ordering two tuple literals — `(a, b) < (c, d)`
# lexicographic tie-breaks go through the polymorphic comparator too
# (Routing_table.build shipped one); spell the tie-break out in ints.
# A Mutex.lock not immediately followed by Fun.protect leaks the lock
# if the critical section raises — library code must go through a
# with_lock-style helper built on that idiom.
# Bare min/max in lib/layout and lib/geometry are the polymorphic
# Stdlib ones (a compare call per use without flambda); these hot paths
# must say Int.min/Int.max (or Float.).
# Sys.time is the process's CPU time, summed over every domain, so a
# phase timed with it under --jobs N reads N times too long.  The wall
# clock (Unix.gettimeofday) jumps under NTP adjustment.  Library code
# times with Span (lib/core/span.ml: Span.with_, Span.now), the one
# place that reads a clock.
lint:
	@! grep -rEn '(^|[^.A-Za-z0-9_])(compare|Hashtbl\.hash)([^A-Za-z0-9_]|$$)' \
		lib --include='*.ml' \
		|| { echo "lint: bare polymorphic compare/hash in lib/"; exit 1; }
	@! grep -rEn '\([^()]*,[^()]*\) *(<=|>=|<|>) *\(' \
		lib --include='*.ml' \
		|| { echo "lint: polymorphic tuple comparison in lib/"; exit 1; }
	@! grep -rEn "Hashtbl\.(add|replace|mem|find|find_opt|find_all|remove) +[A-Za-z_][A-Za-z0-9_']* +\([^()]*," \
		lib --include='*.ml' \
		|| { echo "lint: tuple-keyed Hashtbl call in lib/ (pack the key into an int)"; exit 1; }
	@! grep -rEn "\([^(),]*\*[^(),]*,[^()]*\) *Hashtbl\.t" \
		lib --include='*.ml' --include='*.mli' \
		|| { echo "lint: tuple-keyed Hashtbl type in lib/ (pack the key into an int)"; exit 1; }
	@! grep -rEn '(^|[^.A-Za-z0-9_~?])(min|max) +[(A-Za-z0-9_!-]' \
		lib/layout lib/geometry --include='*.ml' \
		|| { echo "lint: bare min/max in lib/layout or lib/geometry (use Int./Float.)"; exit 1; }
	@! grep -rn 'Sys\.time' lib --include='*.ml' \
		|| { echo "lint: Sys.time (process CPU time) in lib/; time with Span"; exit 1; }
	@! grep -rEn 'Unix\.gettimeofday|Monotonic_clock\.now' lib --include='*.ml' \
		| grep -v '^lib/core/span\.ml:' \
		|| { echo "lint: clock read outside lib/core/span.ml; time with Span"; exit 1; }
	@bad=0; for f in $$(grep -rl 'Mutex\.lock' lib --include='*.ml'); do \
		awk 'flag && !/Fun\.protect/ { print FILENAME ":" FNR-1 \
			": Mutex.lock without Fun.protect on the next line"; bad=1 } \
			{ flag = /Mutex\.lock/ } END { exit bad }' "$$f" || bad=1; \
	done; [ $$bad -eq 0 ] || { echo "lint: unprotected Mutex.lock in lib/"; exit 1; }
	@echo "lint: ok"

# what CI runs, as its single verification step: lint, full build,
# test suite, and a CLI smoke pass (list + one validated layout + a
# malformed spec that must fail + the --json/bench-emit telemetry
# surfaces, which self-validate + the --jobs N vs --jobs 1 byte-identity
# legs + the serve daemon)
check: lint
	dune build @all
	dune runtest
	dune exec bin/mvl_cli.exe -- list > /dev/null
	dune exec bin/mvl_cli.exe -- layout hypercube:6 -l 4 --validate
	! dune exec bin/mvl_cli.exe -- layout hypercube:abc -l 4 2> /dev/null
	dune exec bin/mvl_cli.exe -- layout hypercube:8 -l 4 --json | grep -q '"schema": "mvl.pipeline.run/1"'
	dune exec bin/mvl_cli.exe -- sweep kary:3:2 -l 2,4 --validate --json | grep -q '"schema": "mvl.pipeline.sweep/1"'
	dune exec bin/mvl_cli.exe -- sweep hypercube:6 -l 2,4,8 --jobs 4 --validate > /dev/null
	dune exec bin/mvl_cli.exe -- validate hypercube:4 ccc:3 tree:5 --jobs 3 > /dev/null
	dune exec bench/main.exe -- emit > /dev/null
	grep -q '"schema": "mvl.bench.pipeline/1"' BENCH_pipeline.json
	dune exec bench/main.exe -- emit --jobs 1 --stable -o BENCH_jobs1.json > /dev/null
	dune exec bench/main.exe -- emit --jobs 4 --stable -o BENCH_jobs2.json > /dev/null
	cmp BENCH_jobs1.json BENCH_jobs2.json
	rm -f BENCH_jobs1.json BENCH_jobs2.json
	dune exec bin/mvl_cli.exe -- sim hypercube:6 --load 0.05 --json | grep -q '"schema": "mvl.sim.run/1"'
	dune exec bin/mvl_cli.exe -- sim hypercube:6 --load 0.25 --jobs 1 --stable --json > SIM_jobs1.json
	dune exec bin/mvl_cli.exe -- sim hypercube:6 --load 0.25 --jobs 4 --stable --json > SIM_jobs2.json
	cmp SIM_jobs1.json SIM_jobs2.json
	rm -f SIM_jobs1.json SIM_jobs2.json
	dune exec bin/mvl_cli.exe -- wormhole torus:8:2 --adaptive --load 0.05 --jobs 1 > WH_jobs1.txt
	dune exec bin/mvl_cli.exe -- wormhole torus:8:2 --adaptive --load 0.05 --jobs 3 > WH_jobs3.txt
	cmp WH_jobs1.txt WH_jobs3.txt
	rm -f WH_jobs1.txt WH_jobs3.txt
	dune exec bench/main.exe -- throughput --quick -o BENCH_sim_quick.json > /dev/null
	grep -q '"schema": "mvl.bench.sim/1"' BENCH_sim_quick.json
	dune exec bench/main.exe -- throughput --quick --jobs 1 --stable -o BENCH_sim_jobs1.json > /dev/null
	dune exec bench/main.exe -- throughput --quick --jobs 4 --stable -o BENCH_sim_jobs2.json > /dev/null
	cmp BENCH_sim_jobs1.json BENCH_sim_jobs2.json
	rm -f BENCH_sim_quick.json BENCH_sim_jobs1.json BENCH_sim_jobs2.json
	dune exec bench/main.exe -- scale --quick --jobs 2 -o BENCH_layout_quick.json > /dev/null
	grep -q '"schema": "mvl.bench.layout/1"' BENCH_layout_quick.json
	grep -q '"spans"' BENCH_layout_quick.json
	grep -q '"name":"emit"' BENCH_layout_quick.json
	rm -f BENCH_layout_quick.json
	dune exec bench/main.exe -- scale --quick --stable --jobs 1 -o BENCH_layout_jobs1.json > /dev/null
	dune exec bench/main.exe -- scale --quick --stable --jobs 4 -o BENCH_layout_jobs2.json > /dev/null
	cmp BENCH_layout_jobs1.json BENCH_layout_jobs2.json
	rm -f BENCH_layout_jobs1.json BENCH_layout_jobs2.json
	dune exec bin/mvl_cli.exe -- layout hypercube:6 -l 4 --mem-stats | grep -q 'peak_rss_kib='
	dune exec bin/mvl_cli.exe -- layout hypercube:6 -l 4 --time | grep -q '^ *place '
	dune exec bin/mvl_cli.exe -- layout hypercube:6 -l 4 --mem-stats --json | grep -q '"peak_rss_kib"'
	dune exec bin/mvl_cli.exe -- layout hypercube:6 -l 4 --mem-stats --json | grep -q '"spans"'
	dune exec bin/mvl_cli.exe -- layout hypercube:6 -l 4 --validate --json | grep -q '"name": "check.vias"'
	dune exec bin/mvl_cli.exe -- sim hypercube:6 --load 0.1 --pattern bursty:tornado:8:25 --json | grep -q '"schema": "mvl.sim.run/1"'
	# serve smoke: daemon on a temp socket, 4 parallel clients whose
	# replies must cmp-equal the one-shot --json --stable document, the
	# shared spec must cost exactly one pipeline build, then the quick
	# serving benchmark (binaries invoked directly: concurrent `dune
	# exec` would contend on the build lock).  The recipe is one shell
	# line, so `set -e` makes every test in it fail the target; the
	# EXIT trap stops the daemon and removes the scratch files either way
	set -e; MVL=./_build/default/bin/mvl_cli.exe; SOCK=/tmp/mvl-check-$$$$.sock; rm -f $$SOCK; \
	$$MVL serve --socket $$SOCK & SRV=$$!; \
	trap 'kill $$SRV 2> /dev/null || true; rm -f $$SOCK CHECK_oneshot.json CHECK_served_*.json CHECK_stats.json' EXIT; \
	for i in $$(seq 50); do [ -S $$SOCK ] && break; sleep 0.1; done; [ -S $$SOCK ]; \
	$$MVL layout hypercube:6 -l 4 --json --stable > CHECK_oneshot.json; \
	pids=""; for i in 1 2 3 4; do \
		$$MVL request layout hypercube:6 -l 4 --connect $$SOCK > CHECK_served_$$i.json & pids="$$pids $$!"; \
	done; \
	rc=0; for p in $$pids; do wait $$p || rc=1; done; [ $$rc -eq 0 ]; \
	for i in 1 2 3 4; do cmp CHECK_oneshot.json CHECK_served_$$i.json || exit 1; done; \
	$$MVL request stats --connect $$SOCK > CHECK_stats.json; \
	grep -q '"schema": "mvl.serve.stats/1"' CHECK_stats.json; \
	sed -n '/"pipeline"/,/}/p' CHECK_stats.json | grep -q '"misses": 1,'; \
	$$MVL request shutdown --connect $$SOCK > /dev/null; wait $$SRV
	dune exec bench/main.exe -- serve --quick -o BENCH_serve_quick.json > /dev/null
	grep -q '"schema": "mvl.bench.serve/1"' BENCH_serve_quick.json
	rm -f BENCH_serve_quick.json

bench:
	dune exec bench/main.exe

# the full reproduction pipeline: tests + every figure/table, with the
# outputs captured at the repository root
repro:
	dune build @all
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# requires odoc (not vendored): opam install odoc
doc:
	dune build @doc

clean:
	dune clean
