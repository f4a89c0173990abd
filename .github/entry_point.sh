#!/usr/bin/env bash
# End-to-end checks of the installed `tightport` command: each kind goes through
# generate, verify and simulate, and bad input must exit 1 or 2 as the CLI promises.
# Run from the repository root with `tightport` on PATH:
#   bash --noprofile --norc -eo pipefail .github/entry_point.sh
# or, without installing, with the module standing in for the command:
#   tightport() { python -m tightport.cli "$@"; }; export -f tightport
#   PYTHONPATH=src bash -eo pipefail .github/entry_point.sh

test "$(tightport count-latin 5)" = 56
cd "$(mktemp -d)"
tightport generate unitary-basis --construction weyl --d 3 -o basis.json
tightport generate scheme --from-basis basis.json -o scheme.json
tightport verify scheme.json
tightport simulate scheme.json --state pure:0
tightport generate scheme --from-basis basis.json --mode dense-coding -o dense.json
tightport verify dense.json
tightport simulate dense.json --state pure:0
# the other three kinds go through generate and verify too
tightport generate latin --construction cyclic --d 4 -o latin.json
tightport verify latin.json
tightport generate hadamard --construction fourier --d 3 -o hadamard.json
tightport verify hadamard.json
tightport generate entangled-basis --from-basis basis.json -o entangled.json
tightport verify entangled.json
# at d = 24 both bases verify, and dumps of each loaded file writes the file's own text
tightport generate unitary-basis --construction weyl --d 24 -o basis24.json
tightport generate entangled-basis --from-basis basis24.json -o entangled24.json
tightport verify basis24.json
tightport verify entangled24.json
python -c "import sys, tightport as tp; bad = [p for p in sys.argv[1:] if tp.dumps(tp.load(p)) + '\n' != open(p).read()]; sys.exit(' '.join(bad) or None)" basis24.json entangled24.json
# so does its scheme, whose effects' Gram matrix is formed from the d Hadamard blocks
tightport generate scheme --from-basis basis24.json -o scheme24.json
tightport verify scheme24.json
# an element duplicated inside its own group keeps the block form, which names the pair
python -c "import tightport as tp; e = tp.weyl_basis(12).elements.copy(); e[12] = e[0]; tp.save(tp.make_document(tp.UnitaryBasis(12, e)), 'dup12.json')"
rc=0; tightport verify dup12.json >out.txt || rc=$?; test "$rc" -eq 1; grep -q 'Gram entry (0, 12)' out.txt
# its channels stay a permutation times phases with one phase scaled by 1 + 1e-6, and
# are read as such: the channel is not unitary, and the verdict names it
python -c "import tightport as tp; s = tp.build_scheme(tp.weyl_basis(12)); u = s.channel_unitaries.copy(); u[5, 0] *= 1 + 1e-6; tp.save(tp.make_document(tp.TightScheme(12, s.omega, u, s.effects, tp.TELEPORTATION)), 'scaled12.json')"
rc=0; tightport verify scaled12.json >out.txt || rc=$?; test "$rc" -eq 1; grep -q 'channel 5' out.txt
# a resource with diagonal phases exp(1e-6j k) is read as a permutation times phases too, and
# each T_x as its d nonzeros: the identity fails, and the verdict names the worst outcome
python -c "import numpy as np, tightport as tp; s = tp.build_scheme(tp.weyl_basis(12)); tp.save(tp.make_document(tp.TightScheme(12, np.diag(np.exp(1e-6j * np.arange(12))).ravel() / np.sqrt(12), s.channel_unitaries, s.effects, tp.TELEPORTATION)), 'phased12.json')"
rc=0; tightport verify phased12.json >out.txt || rc=$?; test "$rc" -eq 1; grep -q 'outcome 132' out.txt
# an entry off an element's support fails: NaN through the library (a document cannot hold
# it), and 1e200, whose products overflow, through the command
python -c "import numpy as np, tightport as tp; e = tp.weyl_basis(12).elements.copy(); e[5, 0, np.flatnonzero(e[5, 0] == 0)[0]] = np.nan; assert not tp.verify(tp.UnitaryBasis(12, e))"
python -c "import numpy as np, tightport as tp; e = tp.weyl_basis(12).elements.copy(); e[5, 0, np.flatnonzero(e[5, 0] == 0)[0]] = 1e200; tp.save(tp.make_document(tp.UnitaryBasis(12, e)), 'huge12.json')"
rc=0; tightport verify huge12.json || rc=$?; test "$rc" -eq 1
# at d = 16 a copy of an element of another group, or an element moved by 1e-3, leaves a Latin
# basis its blocks plus that element's row, and each verdict names the entry the product names
python -c "import tightport as tp; e = tp.weyl_basis(16).elements.copy(); e[1] = e[0]; tp.save(tp.make_document(tp.UnitaryBasis(16, e)), 'dup16.json'); e = tp.weyl_basis(16).elements.copy(); e[40] += 1e-3; tp.save(tp.make_document(tp.UnitaryBasis(16, e)), 'moved16.json')"
rc=0; tightport verify dup16.json >out.txt || rc=$?; test "$rc" -eq 1; grep -q 'Gram entry (0, 1)' out.txt
rc=0; tightport verify moved16.json >out.txt || rc=$?; test "$rc" -eq 1; grep -q 'element 40 is not unitary' out.txt
tightport generate scheme --from-basis moved16.json -o moved16-scheme.json
rc=0; tightport verify moved16-scheme.json >out.txt || rc=$?; test "$rc" -eq 1; grep -q 'channel 40' out.txt
# the same basis re-laid out with one-space indents verifies and writes the canonical text back
python -m json.tool --indent 1 basis24.json basis24-indented.json
tightport verify basis24-indented.json
python -c "import tightport as tp; assert tp.dumps(tp.load('basis24-indented.json')) + '\n' == open('basis24.json').read()"
# a dense basis (Weyl moved by two seeded random unitaries) verifies and writes its own text back
python -c "import numpy as np, tightport as tp; rng = np.random.default_rng(8); u = [np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0] for _ in range(2)]; tp.save(tp.make_document(tp.apply_equivalence(tp.weyl_basis(8), *u)), 'dense8.json')"
tightport verify dense8.json
python -c "import tightport as tp; assert tp.dumps(tp.load('dense8.json')) + '\n' == open('dense8.json').read()"
# a duplicated element passes the teleportation identity alone; both commands must exit 1
python -c "import tightport as tp; e = tp.weyl_basis(3).elements.copy(); e[4] = e[0]; tp.save(tp.make_document(tp.UnitaryBasis(3, e)), 'dup.json')"
tightport generate scheme --from-basis dup.json -o dup-scheme.json
rc=0; tightport verify dup-scheme.json || rc=$?; test "$rc" -eq 1
rc=0; tightport simulate dup-scheme.json --state pure:0 || rc=$?; test "$rc" -eq 1
# a unitary twist of one correction fails teleportation at that outcome
python -c "import numpy as np, tightport as tp; s = tp.build_scheme(tp.weyl_basis(3)); u = s.channel_unitaries.copy(); u[4] = u[4] @ np.diag([np.exp(0.001j), 1, 1]); tp.save(tp.make_document(tp.TightScheme(3, s.omega, u, s.effects, tp.TELEPORTATION)), 'twisted.json')"
rc=0; tightport verify twisted.json >out.txt || rc=$?; test "$rc" -eq 1; grep -q 'outcome 4' out.txt
# the same twist by 1e-5 fails dense coding at that outcome, though the outcome table moves by 1e-11
python -c "import numpy as np, tightport as tp; s = tp.build_scheme(tp.weyl_basis(3), tp.DENSE_CODING); u = s.channel_unitaries.copy(); u[4] = u[4] @ np.diag([np.exp(1e-5j), 1, 1]); tp.save(tp.make_document(tp.TightScheme(3, s.omega, u, s.effects, tp.DENSE_CODING)), 'twisted-dense.json')"
rc=0; tightport verify twisted-dense.json >out.txt || rc=$?; test "$rc" -eq 1; grep -q 'outcome 4' out.txt
# bad parameters and out-of-range symbols exit 2 with one error line on stderr
rc=0; tightport simulate scheme.json --state pure:１ 2>err.txt || rc=$?; test "$rc" -eq 2; grep -q '^error: ' err.txt; test "$(wc -l <err.txt)" -eq 1
rc=0; tightport count-latin 6 2>err.txt || rc=$?; test "$rc" -eq 2; grep -q '^error: ' err.txt
python -c "import json; json.dump({'v': 1, 'kind': 'latin', 'd': 3, 'meta': '', 'payload': {'grid': [[0, 1, 2], [1, 3, 0], [2, 0, 1]]}}, open('bad-latin.json', 'w'))"
rc=0; tightport verify bad-latin.json 2>err.txt || rc=$?; test "$rc" -eq 2; grep -q '^error: ' err.txt
# entries of 1e200 load and their products overflow: verify fails closed with nothing on
# stderr, and a Hadamard matrix with one such entry is a bad parameter with one error line
python -c "import json, tightport as tp; doc = json.loads(tp.dumps(tp.make_document(tp.weyl_basis(2)))); doc['payload']['elements'] = [[[[1e200, 1e200]] * 2] * 2] * 4; json.dump(doc, open('huge-basis.json', 'w'))"
rc=0; tightport verify huge-basis.json 2>err.txt || rc=$?; test "$rc" -eq 1; test ! -s err.txt
python -c "import json, tightport as tp; doc = json.loads(tp.dumps(tp.make_document(tp.fourier_hadamard(2)))); doc['payload']['matrix'][0][0] = [1e200, 0.0]; json.dump(doc, open('huge-hadamard.json', 'w'))"
tightport generate latin --construction cyclic --d 2 -o latin2.json
tightport generate hadamard --construction fourier --d 2 -o hadamard2.json
rc=0; tightport generate unitary-basis --construction shift-multiply --latin latin2.json --hadamards huge-hadamard.json hadamard2.json -o huge-out.json 2>err.txt || rc=$?; test "$rc" -eq 2; grep -q '^error: ' err.txt; test "$(wc -l <err.txt)" -eq 1
# a document nested 100,000 lists deep is malformed input, not a crash
python -c "open('deep.json', 'w').write('[' * 100000 + ']' * 100000)"
rc=0; tightport verify deep.json 2>err.txt || rc=$?; test "$rc" -eq 2; grep -q '^error: ' err.txt
# a d = 24 child holds its document's arrays and text, not copies of them: the verify and
# generate entangled-basis children must each peak at most 3 times the file's size (ru_maxrss,
# in KiB on Linux) above a bare import. Last, so that every check above runs first. On a 2-core
# x86-64 virtual machine verify read 2.55-2.65 times, the text and the basis (its verdict's
# 576 x 576 Gram table is formed only when read, and the command does not read it), and
# generate entangled-basis 2.79-2.94, the basis, its image scattered from the basis's kept
# reading and the buffer save writes; the previous tree read 2.58-2.60 and 2.86-2.88 on the
# same host, and both read 7.6 before the CLI held the loaded arrays themselves
python -c "
import os, subprocess, sys
def peak(*argv):
    child = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL)
    status, usage = os.wait4(child.pid, 0)[1:]
    assert os.waitstatus_to_exitcode(status) == 0, argv
    return usage.ru_maxrss * 1024
bare = peak('-c', 'import tightport.cli')
ratios = {}
for argv in [('verify', 'basis24.json'), ('generate', 'entangled-basis', '--from-basis', 'basis24.json', '-o', 'entangled24.json')]:
    ratios[argv[0]] = (peak('-m', 'tightport.cli', *argv) - bare) / os.path.getsize(argv[-1])
    print(f'{argv[0]} {argv[-1]}: {ratios[argv[0]]:.2f} times the file size above a bare import')
assert max(ratios.values()) <= 3, ratios
"
