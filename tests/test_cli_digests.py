"""The CLI answers its digest corpus byte for byte as recorded.

record_cli_digests.py holds the corpus (wheel indices 1-40, 100, 171 and
270 with brute force mod 2, 3 and 5, wheel 6 mod 2, 2 and 5, wheel 6 with
no modulus after --moduli, wheel 7 mod 4, table 1-60 in every format, verify,
240 seeded colorgroup/abf words, and 18 refusals and help requests) and
wrote cli_digests.json; a change that must keep stdout, stderr and the
exit code leaves this test passing.
"""

from record_cli_digests import CORPUS, answer, recorded


def test_cli_answers_match_the_recorded_digests():
    wanted = recorded()
    assert [want[0] for want in wanted] == CORPUS
    differing = [want[0] for want in wanted if answer(want[0]) != want]
    assert not differing, differing
