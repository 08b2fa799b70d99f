"""Driver match-making (paper Sections 3.1, 4.1.1).

Given a ``DRIVOLUTION_REQUEST`` the server must pick the driver to offer.
The paper's server logic is:

1. if a distribution (``driver_permission``) table exists and has entries,
   query it first (Sample code 2) to obtain the short list of drivers this
   client may receive, sorted/filtered further by client preferences;
2. otherwise (or to narrow the short list) run the preference query over
   the drivers table (Sample code 1);
3. if the preference query returns nothing, retry without preferences;
4. if still nothing, the answer is a ``DRIVOLUTION_ERROR``;
5. if multiple drivers match, "the first matching driver is chosen".

The matchmaker also resolves the effective lease time and policies for the
chosen driver (from the matching permission row, falling back to
defaults), because the OFFER message must carry them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.constants import DEFAULT_LEASE_TIME_MS, ExpirationPolicy, RenewPolicy
from repro.core.messages import DrivolutionRequest
from repro.core.registry import DriverPermission, DriverRegistry
from repro.errors import DrivolutionError


class NoMatchingDriver(DrivolutionError):
    """No driver satisfies the request (maps to DRIVOLUTION_ERROR)."""


@dataclass
class MatchResult:
    """The chosen driver plus the policies that govern its lease."""

    driver_id: int
    driver_row: Dict[str, Any]
    lease_time_ms: int = DEFAULT_LEASE_TIME_MS
    renew_policy: RenewPolicy = RenewPolicy.RENEW
    expiration_policy: ExpirationPolicy = ExpirationPolicy.AFTER_COMMIT
    driver_options: Dict[str, Any] = field(default_factory=dict)


class Matchmaker:
    """Implements the server-side driver selection logic. Time-dependent
    filtering (permission date windows) happens in the registry's SQL."""

    def __init__(
        self, registry: DriverRegistry, known_databases: Optional[Callable[[], List[str]]] = None
    ) -> None:
        self._registry = registry
        self._known_databases = known_databases

    # -- public --------------------------------------------------------------

    def match(self, request: DrivolutionRequest) -> MatchResult:
        """Pick the driver to offer, or raise :class:`NoMatchingDriver`."""
        if self._known_databases is not None:
            databases = {name.lower() for name in self._known_databases()}
            if databases and request.database.lower() not in databases:
                raise NoMatchingDriver(f"invalid database {request.database!r}")

        permissions = self._registry.query_permissions(
            database=request.database, user=request.user, client_ip=request.client_ip or None
        )
        if permissions:
            return self._match_from_permissions(request, permissions)
        if self._registry.list_permissions():
            # A distribution table is in use but nothing in it currently
            # applies to this client (expired end_date, wrong user/ip/db):
            # the driver is not distributable, even if it still exists in
            # the drivers table. This is how "set end_date to now" disables
            # a driver (Section 4.1.1).
            raise NoMatchingDriver(
                f"no currently distributable driver for database {request.database!r}, "
                f"user {request.user!r}"
            )
        return self._match_from_drivers(request)

    # -- permission-driven selection (Sample code 2 first) -----------------------

    def _match_from_permissions(
        self, request: DrivolutionRequest, permissions: List[DriverPermission]
    ) -> MatchResult:
        candidate_rows = self._candidate_driver_rows(request)
        candidates_by_id = {int(row["driver_id"]): row for row in candidate_rows}
        for permission in permissions:
            row = candidates_by_id.get(permission.driver_id)
            if row is None:
                continue
            return MatchResult(
                driver_id=permission.driver_id,
                driver_row=row,
                lease_time_ms=permission.lease_time_in_ms,
                renew_policy=permission.renew_policy,
                expiration_policy=permission.expiration_policy,
                driver_options=dict(permission.driver_options),
            )
        raise NoMatchingDriver(
            f"no driver for API {request.api_name!r} on platform {request.client_platform!r} "
            f"is distributable to user={request.user!r} database={request.database!r}"
        )

    # -- preference-driven selection (Sample code 1) --------------------------------

    def _match_from_drivers(self, request: DrivolutionRequest) -> MatchResult:
        rows = self._candidate_driver_rows(request)
        if not rows:
            raise NoMatchingDriver(
                f"no driver for API {request.api_name!r} on platform {request.client_platform!r}"
            )
        return MatchResult(driver_id=int(rows[0]["driver_id"]), driver_row=rows[0])

    def _candidate_driver_rows(self, request: DrivolutionRequest) -> List[Dict[str, Any]]:
        """Preference query, then the fallback query without preferences."""
        rows = self._registry.query_drivers(
            api_name=request.api_name,
            client_platform=request.client_platform,
            api_version=request.api_version,
            driver_version=request.preferred_driver_version,
            with_preferences=True,
        )
        if not rows:
            rows = self._registry.query_drivers(
                api_name=request.api_name,
                client_platform=request.client_platform,
                with_preferences=False,
            )
        if rows and request.preferred_binary_format:
            preferred = [
                row for row in rows if row.get("binary_format") == request.preferred_binary_format
            ]
            if preferred:
                rows = preferred
        return rows
