"""The trc-1 certificate: every identity check and every command builds it here.

Two rules hold for every certificate, and this module is the only place they
are written:
  - `first_failure` is null exactly when the check passes;
  - a check that counts its cases never passes on zero of them.
`check` builds the certificate of one identity check, and `run` wraps a
command's results with its ordered stage verdicts.
"""

SCHEMA = "trc-1"


def check(identity, ok, failure=None, cases=None, **fields):
    """The certificate of one identity check; `failure` is its first failing
    witness, kept only when the check fails.  With `cases` it also carries
    `cases_checked`, and a pass on zero cases is a failure."""
    if cases is not None:
        fields["cases_checked"] = cases
        if ok and cases < 1:
            ok, failure = False, {"reason": "no cases checked"}
    return {"identity": identity, "pass": ok, "first_failure": None if ok else failure,
            **fields}


def run(command, inputs, results, stages):
    """The certificate of a command; `stages` is the ordered (stage, pass)
    list.  It passes when every stage passes, and `first_failure` names the
    first stage that does not."""
    failed = next((stage for stage, ok in stages if not ok), None)
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "results": results,
        "pass": failed is None,
        "first_failure": None if failed is None else {"stage": failed},
    }
