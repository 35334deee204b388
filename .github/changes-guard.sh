#!/usr/bin/env bash
# Fails when CHANGES.md has lost a `PR n` entry (a line starting "- PR n" or
# "- **PR n", "(repair)" entries counted on their own) that it had at a base
# revision. An entry may be edited; it may not disappear.
#
# Usage: .github/changes-guard.sh BASE [HEAD]
# HEAD defaults to the working tree's CHANGES.md.
set -euo pipefail
entries() { grep -oE '^- (\*\*)?PR [0-9]+( \(repair\))?' | sed -E 's/^- (\*\*)?//' | sort -u || true; }
base=$(git show "$1:CHANGES.md" | entries)
if [ $# -ge 2 ]; then
	head=$(git show "$2:CHANGES.md" | entries)
else
	head=$(entries <CHANGES.md)
fi
lost=$(comm -23 <(echo "$base") <(echo "$head"))
if [ -n "$lost" ]; then
	echo "CHANGES.md lost entries that $1 has:"
	echo "$lost"
	exit 1
fi
echo "CHANGES.md keeps all $(echo "$base" | grep -c .) entries that $1 has"
